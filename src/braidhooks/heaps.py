"""Heaps of pieces: the poset of a word and its rotation onto tableaux.

Dropping a piece for each letter, rightmost letter first, builds a poset
whose linear extensions are the commutation class of the word.  Rotating
the heap by 45 degrees matches it with a justified shape: the piece in
column c at stack position p corresponds to the p-th cell (top-down) of
the shape's diagonal c, and the drop order becomes a standard filling.

``nu`` builds no heap: it checks where each piece lands against the shape's
cover masks.  A heap's order is generated by its adjacent-column pairs, so
that is exact once the shape orders every two cells on adjacent diagonals;
the column table and that condition are built once per ``Shape``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import QuadraticRuleError, ShapeMismatchError
from .posets import transitive_reduction
from .tableaux import Shape, Tableau, _is_standard
from .words import Word, make_word

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


def _drop(word: Word) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Simulate the drops; return each piece's (column, height) and its
    (column, stack position), both in drop order."""
    tops = [0] * (word.rank + 1)
    counts = [0] * (word.rank + 1)
    placed: list[tuple[int, int]] = []
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
        placed.append((letter, adjacent + 1))
        pieces.append((letter, counts[letter]))
    return placed, pieces


def _heap(placed: list[tuple[int, int]], pieces: list[tuple[int, int]]) -> HeapPoset:
    order = sorted(range(len(pieces)), key=pieces.__getitem__)
    rank_of = {drop_idx: canon for canon, drop_idx in enumerate(order)}
    columns = tuple(pieces[i][0] for i in order)
    stack_pos = tuple(pieces[i][1] for i in order)
    by_column: dict[int, list[tuple[int, int]]] = {}
    for drop_idx, (col, height) in enumerate(placed):
        by_column.setdefault(col, []).append((height, drop_idx))
    for stack in by_column.values():
        stack.sort()
    relations: set[tuple[int, int]] = set()
    for drop_idx, (col, height) in enumerate(placed):
        for adj in (col - 1, col + 1):
            for other_height, other_idx in by_column.get(adj, ()):
                if other_height > height:
                    relations.add((rank_of[drop_idx], rank_of[other_idx]))
                    break
    covers, _ = transitive_reduction(len(placed), relations)
    return HeapPoset(columns, stack_pos, covers)


def heap_poset(word: Word) -> HeapPoset:
    """The heap of a word, with covers between adjacent columns only."""
    return _heap(*_drop(word))


def build_order_extension(word: Word) -> LinearExtensionLabel:
    """Label each canonical heap element with its drop step (1 = rightmost)."""
    pieces = _drop(word)[1]
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


def _shape_side(shape: Shape) -> tuple[dict[tuple[int, int], tuple[int, int]], bool]:
    """The cell at each heap (column, stack position), and whether the shape
    orders every two cells on adjacent diagonals; built once per shape."""
    if shape._heap is None:
        cells, columns, positions = _diagonal_layout(shape)
        below = shape._below
        _, up = transitive_reduction(
            len(below), ((j, i) for i, b in enumerate(below) for j in range(i) if b >> j & 1)
        )
        index, diagonals = shape._index, shape.diagonals()
        ordered = all(
            index[y] in up[index[x]] or index[x] in up[index[y]]
            for d, lower in diagonals.items() for x in lower for y in diagonals.get(d + 1, ())
        )
        shape._heap = dict(zip(zip(columns, positions), cells)), ordered
    return shape._heap


def shape_poset(shape: Shape) -> HeapPoset:
    """The cell poset of a shape, in diagonal layout order."""
    cells, columns, positions = _diagonal_layout(shape)
    layout = {shape._index[cell]: k for k, cell in enumerate(cells)}
    covers = frozenset(
        (layout[j], layout[i]) for i, b in enumerate(shape._below)
        for j in range(i) if b >> j & 1
    )
    return HeapPoset(tuple(columns), tuple(positions), covers)


def nu(word: Word, shape: Shape) -> Tableau:
    """Transport the build order of the word's heap onto the shape's cells."""
    cell_at, ordered = _shape_side(shape)
    pos = tuple([cell_at.get(piece) for piece in _drop(word)[1]])
    if not (ordered and _is_standard(shape, pos)):
        raise ShapeMismatchError(
            f"heap of {word} is not isomorphic to the poset of {shape!r}"
        )
    return Tableau(shape, pos, _checked=True)


def nu_inverse(t: Tableau) -> Word:
    """Read the word back: letter p from the left is the (normalised) diagonal
    of the cell holding N+1-p."""
    shift = 1 - min(t.shape.diagonals())
    letters = tuple(c - r + 1 + shift for (r, c) in reversed(t.pos))
    rank = max(letters) + 1
    return make_word(letters, rank)


def heap_to_json(poset: HeapPoset) -> str:
    return json.dumps(
        {
            "elements": [
                {"id": i, "column": col} for i, col in enumerate(poset.columns)
            ],
            "covers": sorted([lo, hi] for lo, hi in poset.covers),
        }
    )
