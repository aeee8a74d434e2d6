"""Heaps of pieces: the poset of a word and its rotation onto tableaux.

Dropping a piece for each letter, rightmost letter first, builds a poset
whose linear extensions are the commutation class of the word: the masks of
``words._heap_order`` over the letters in drop order, reduced.  Rotating
the heap by 45 degrees matches it with a justified shape: the piece in
column c at stack position p corresponds to the p-th cell (top-down) of
the shape's diagonal c, and the drop order becomes a standard filling.

``nu`` builds no heap: it drops the pieces in one pass over the letters and
checks where each lands against the shape's cover masks.  A heap's order is
generated by its adjacent-column pairs, so that is exact once the shape
orders every two cells on adjacent diagonals.  The column table (the cell
at each column and stack position), that condition and each cell's letter
are built once per ``Shape``; ``nu_inverse`` reads the letters from it and
builds its word without ``Word``'s range check, which the public
constructors keep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import QuadraticRuleError, ShapeMismatchError
from .posets import _bits, transitive_reduction
from .tableaux import Shape, Tableau
from .words import Word, _heap_order, _no_square, _word

__all__ = [
    "HeapPoset",
    "LinearExtensionLabel",
    "heap_poset",
    "build_order_extension",
    "shape_poset",
    "nu",
    "nu_inverse",
    "heap_to_json",
]


@dataclass(frozen=True)
class HeapPoset:
    """Heap elements in canonical (column, stack position) order.

    ``columns[i]`` and ``positions[i]`` locate element i; ``covers`` holds
    the transitively reduced relation as (lower, upper) index pairs.  Two
    heaps are isomorphic (as marked posets) exactly when they are equal.
    """

    columns: tuple[int, ...]
    positions: tuple[int, ...]
    covers: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class LinearExtensionLabel:
    """Labels 1..m on the canonical elements of a heap poset."""

    labels: tuple[int, ...]


def _drop(word: Word) -> list[tuple[int, int]]:
    """Simulate the drops; return each piece's (column, stack position) in
    drop order."""
    tops = [0] * (word.rank + 1)
    counts = [0] * (word.rank + 1)
    pieces: list[tuple[int, int]] = []
    for letter in reversed(word.letters):
        adjacent = max(tops[letter - 1], tops[letter + 1])
        if tops[letter] > adjacent:
            # the piece would rest directly on its own column: some word in
            # the commutation class contains the factor `a a`
            raise QuadraticRuleError(
                f"letter {letter} stacks on itself; class violates the quadratic rule"
            )
        # adjacent columns never share a height, so the piece rests on a neighbour
        tops[letter] = adjacent + 1
        counts[letter] += 1
        pieces.append((letter, counts[letter]))
    return pieces


def _heap(drop_letters: tuple[int, ...], pieces: list[tuple[int, int]]) -> HeapPoset:
    """The reduced heap of the letters in drop order.  ``pieces``, sorted, are
    ``_heap_order``'s piece numbering: (column, stack position)."""
    covers, _ = transitive_reduction(_heap_order(drop_letters)[1])
    return HeapPoset(
        tuple([column for column, _ in pieces]),
        tuple([position for _, position in pieces]),
        frozenset((j, i) for i, b in enumerate(covers) for j in _bits(b)),
    )


def heap_poset(word: Word) -> HeapPoset:
    """The heap of a word, with covers between adjacent columns only."""
    return _heap(word.letters[::-1], sorted(_drop(word)))


def build_order_extension(word: Word) -> LinearExtensionLabel:
    """Label each canonical heap element with its drop step (1 = rightmost)."""
    pieces = _drop(word)
    order = sorted(range(len(pieces)), key=pieces.__getitem__)
    return LinearExtensionLabel(tuple(drop_idx + 1 for drop_idx in order))


def _diagonal_layout(shape: Shape) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Cells in canonical (normalised diagonal, row) order with columns/positions."""
    diagonals = shape.diagonals()
    shift = 1 - min(diagonals)
    layout = [(cell, d + shift, p) for d in sorted(diagonals)
              for p, cell in enumerate(diagonals[d], start=1)]
    cells, columns, positions = map(list, zip(*layout))
    return cells, columns, positions


def _shape_side(shape: Shape) -> tuple[list[list[int]], bool, dict[tuple[int, int], int]]:
    """The shape's side of ``nu``, built once per shape: ``table[column][p]``
    is the id of the cell at stack position p+1 of that column (column 0 is
    empty), ``ordered`` says whether the shape orders every two cells on
    adjacent diagonals, and ``letter`` maps each cell to its column."""
    if shape._heap is None:
        cells, columns, _ = _diagonal_layout(shape)
        table: list[list[int]] = [[] for _ in range(max(columns) + 1)]
        for cell, column in zip(cells, columns):  # positions ascend within a column
            table[column].append(shape._index[cell])
        _, down = transitive_reduction(shape._below)
        ordered = all(
            (down[x] >> y | down[y] >> x) & 1
            for lower, upper in zip(table, table[1:]) for x in lower for y in upper
        )
        shape._heap = table, ordered, dict(zip(cells, columns))
    return shape._heap


def shape_poset(shape: Shape) -> HeapPoset:
    """The cell poset of a shape, in diagonal layout order."""
    cells, columns, positions = _diagonal_layout(shape)
    layout = {shape._index[cell]: k for k, cell in enumerate(cells)}
    covers = frozenset(
        (layout[j], layout[i]) for i, b in enumerate(shape._below) for j in _bits(b)
    )
    return HeapPoset(tuple(columns), tuple(positions), covers)


def nu(word: Word, shape: Shape) -> Tableau:
    """Transport the build order of the word's heap onto the shape's cells.

    One pass drops the pieces, rightmost letter first: each rests on the
    taller neighbouring column (``QuadraticRuleError`` if its own is taller)
    and takes its column's next stack position, so the cell the column table
    holds there, whose lower covers must already be placed.  After a
    mismatch the drops go on, so the quadratic rule is reported first.
    """
    table, ordered, _ = _shape_side(shape)
    below, cells = shape._below, shape.cells
    letters = word.letters
    fits = ordered and len(letters) == len(below) and max(letters) < len(table)
    tops = [0] * (word.rank + 1)
    counts = [0] * len(table)
    pos = []
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
                    pos.append(cells[i])
                    continue
            fits = False
    if not fits:
        raise ShapeMismatchError(
            f"heap of {word} is not isomorphic to the poset of {shape!r}"
        )
    return Tableau(shape, tuple(pos), _checked=True)


def nu_inverse(t: Tableau) -> Word:
    """Read the word back: letter p from the left is the column (normalised
    diagonal) of the cell holding N+1-p.  A disconnected skew shape can read
    back a factor ``a a``: ``QuadraticRuleError``."""
    letter = _shape_side(t.shape)[2]
    letters = tuple([letter[cell] for cell in reversed(t.pos)])
    _no_square(letters)
    return _word(letters, max(letters) + 1)


def heap_to_json(poset: HeapPoset) -> str:
    return json.dumps(
        {
            "elements": [
                {"id": i, "column": col} for i, col in enumerate(poset.columns)
            ],
            "covers": sorted([lo, hi] for lo, hi in poset.covers),
        }
    )
