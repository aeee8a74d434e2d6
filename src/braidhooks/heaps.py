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

``nu`` builds no heap: it places the pieces in one pass over the letters
and checks where each lands against the shape's cover masks.  A heap's
order is generated by its adjacent-column pairs, so that is exact once the
shape orders every two cells on adjacent diagonals, which the shape's own
down-set masks tell.  Built once per ``Shape``: the column table (the cell
id at each column and stack position), that condition, each cell id's
letter, and whether the shape is separated, that is, meets the condition
with a cell of a neighbouring column strictly between each two consecutive
cells of a column.  A pass that places every piece on a separated shape
stacks none on its own column, so there ``nu`` places cell ids, the
filling's own labels, without drop heights, and ``nu_inverse`` reads back
no factor ``a a``.  On any other shape, or for a word that pass cannot
place, ``_drops`` drops the pieces by column heights, so the quadratic rule
is reported first; only off a separated shape does ``nu_inverse`` check for
``a a``.  It reads the letters of a filling's ids and builds its word
without ``Word``'s range check, which the public constructors keep.  Drop
heights are kept for the columns up to the word's largest letter, not its
rank.
"""

from __future__ import annotations

import json

from .errors import QuadraticRuleError, ShapeMismatchError
from .posets import LinearExtension, Poset, _bits, _build
from .tableaux import Shape, Tableau
from .words import Word, _heap_order, _no_square, _word

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
    counts = [0] * (max(word.letters, default=0) + 1)
    pieces = []
    for letter in reversed(word.letters):
        counts[letter] += 1
        pieces.append((letter, counts[letter]))
    return pieces


def heap_poset(word: Word) -> Poset:
    """The heap of a word, with covers between adjacent columns only;
    ``QuadraticRuleError`` names the first piece, in drop order, that rests
    directly on its own column."""
    pieces = _pieces(word)
    elements = sorted(pieces)  # ``_heap_order``'s piece numbering
    _, below = _heap_order(word.letters[::-1])
    heap = Poset(elements, [(elements[j], elements[i])
                            for i, b in enumerate(below) for j in _bits(b)])
    for column, p in pieces:
        if ((column, p - 1), (column, p)) in heap.covers:
            raise QuadraticRuleError(
                f"letter {column} stacks on itself; class violates the quadratic rule"
            )
    return heap


def build_order_extension(word: Word) -> LinearExtension:
    """The extension of the word's heap that lists its pieces in drop order."""
    return LinearExtension(heap_poset(word), tuple(_pieces(word)))


def _diagonal_layout(shape: Shape) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Cells in canonical (normalised diagonal, row) order with columns/positions."""
    diagonals = shape.diagonals()
    shift = 1 - min(diagonals)
    layout = [(cell, d + shift, p) for d in sorted(diagonals)
              for p, cell in enumerate(diagonals[d], start=1)]
    cells, columns, positions = map(list, zip(*layout))
    return cells, columns, positions


def _shape_side(shape: Shape) -> tuple[list[list[int]], bool, list[int], bool]:
    """The shape's side of ``nu``, built once per shape: ``table[column][p]``
    is the id of the cell at stack position p+1 of that column (column 0 is
    empty), ``ordered`` says whether the shape orders every two cells on
    adjacent diagonals, ``letter[i]`` is the column of cell id i, and
    ``separated`` says whether, besides, some cell of a neighbouring column
    lies strictly between each two consecutive cells of a column."""
    if shape._heap is None:
        cells, columns, _ = _diagonal_layout(shape)
        table: list[list[int]] = [[] for _ in range(max(columns) + 1)]
        letter = [0] * shape.size
        for cell, column in zip(cells, columns):  # positions ascend within a column
            i = shape._index[cell]
            table[column].append(i)
            letter[i] = column
        down = shape._down
        ordered = all(
            (down[x] >> y | down[y] >> x) & 1
            for lower, upper in zip(table, table[1:]) for x in lower for y in upper
        )
        # once ``ordered``, a neighbour below y and not below x lies above x
        bits = [sum(1 << i for i in column) for column in table] + [0]
        separated = ordered and all(
            down[y] & ~down[x] & (bits[c - 1] | bits[c + 1])
            for c in range(1, len(table)) for x, y in zip(table[c], table[c][1:])
        )
        shape._heap = table, ordered, letter, separated
    return shape._heap


def shape_poset(shape: Shape) -> Poset:
    """The cell poset of a shape, each cell named by the piece ``nu`` sends
    to it, in diagonal layout order."""
    cells, columns, positions = _diagonal_layout(shape)
    piece = dict(zip(cells, zip(columns, positions)))
    return Poset(list(piece.values()),
                 [(piece[a], piece[b]) for a, b in shape.covers])


def nu(word: Word, shape: Shape) -> Tableau:
    """Transport the build order of the word's heap onto the shape's cells.

    Each piece, rightmost letter first, takes its column's next stack
    position, so the cell the column table holds there, whose lower covers
    must already be placed.  On a separated shape no such placement stacks a
    piece on its own column, so one lean pass settles the word; any other
    shape, and any word that pass cannot place, goes through ``_drops``.
    """
    table, _, _, separated = _shape_side(shape)
    below = shape._below
    letters = word.letters
    if separated and len(letters) == len(below):
        counts = [0] * len(table)
        ids = []
        mask = 0
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
    return _drops(word, shape)


def _drops(word: Word, shape: Shape) -> Tableau:
    """``nu`` by dropping the pieces: each rests on the taller neighbouring
    column (``QuadraticRuleError`` if its own is taller) and takes its
    column's next stack position as in ``nu``.  After a mismatch the drops
    go on, so the quadratic rule is reported first."""
    table, ordered, _, _ = _shape_side(shape)
    below = shape._below
    letters = word.letters
    top = max(letters, default=0)
    fits = ordered and len(letters) == len(below) and top < len(table)
    tops = [0] * (top + 2)  # a letter's own column and both neighbours
    counts = [0] * len(table)
    ids = []
    mask = 0
    for a in reversed(letters):
        left, right = tops[a - 1], tops[a + 1]
        height = left if left > right else right
        if tops[a] > height:
            raise QuadraticRuleError(
                f"letter {a} stacks on itself; class violates the quadratic rule"
            )
        tops[a] = height + 1
        if fits:
            column, p = table[a], counts[a]
            counts[a] = p + 1
            if p < len(column):
                i = column[p]
                if below[i] & mask == below[i]:
                    mask |= 1 << i
                    ids.append(i)
                    continue
            fits = False
    if not fits:
        raise ShapeMismatchError(
            f"heap of {word} is not isomorphic to the poset of {shape!r}"
        )
    return _build(Tableau, shape, tuple(ids))


def nu_inverse(t: Tableau) -> Word:
    """Read the word back: letter p from the left is the column (normalised
    diagonal) of the cell holding N+1-p.  A separated shape reads back no
    factor ``a a``; any other, a disconnected skew shape say, can:
    ``QuadraticRuleError``."""
    table, _, letter, separated = _shape_side(t.shape)
    letters = tuple([letter[i] for i in reversed(t.ids)])
    if not separated:
        _no_square(letters)
    return _word(letters, len(table))


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
