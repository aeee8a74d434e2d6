"""Heaps of pieces: the poset of a word and its rotation onto tableaux.

Dropping a piece for each letter, rightmost letter first, builds a poset
whose linear extensions are the commutation class of the word.  Rotating
the heap by 45 degrees matches it with a justified shape: the piece in
column c at stack position p corresponds to the p-th cell (top-down) of
the shape's diagonal c, and the drop order becomes a standard filling.
The shape side of that match (its cells in diagonal order and its cell
poset) is built once per ``Shape`` and kept on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import QuadraticRuleError, ShapeMismatchError
from .posets import transitive_reduction
from .tableaux import Shape, Tableau
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


def _drop(word: Word) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Simulate the drops; return (column, height) per element in drop order,
    each element's stack position within its column, and the drop indices
    in canonical (column, stack position) order."""
    tops: dict[int, int] = {}
    counts: dict[int, int] = {}
    placed: list[tuple[int, int]] = []
    positions: list[int] = []
    for letter in reversed(word.letters):
        own = tops.get(letter, 0)
        adjacent = max(tops.get(letter - 1, 0), tops.get(letter + 1, 0))
        if own > adjacent:
            # the piece would rest directly on its own column: some word in
            # the commutation class contains the factor `a a`
            raise QuadraticRuleError(
                f"letter {letter} stacks on itself; class violates the quadratic rule"
            )
        height = max(own, adjacent) + 1
        tops[letter] = height
        counts[letter] = counts.get(letter, 0) + 1
        placed.append((letter, height))
        positions.append(counts[letter])
    order = sorted(range(len(placed)), key=lambda i: (placed[i][0], positions[i]))
    return placed, positions, order


def _heap(placed: list[tuple[int, int]], positions: list[int],
          order: list[int]) -> HeapPoset:
    rank_of = {drop_idx: canon for canon, drop_idx in enumerate(order)}
    columns = tuple(placed[i][0] for i in order)
    stack_pos = tuple(positions[i] for i in order)
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
    _, _, order = _drop(word)
    return LinearExtensionLabel(tuple(drop_idx + 1 for drop_idx in order))


def _diagonal_layout(shape: Shape) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Cells in canonical (normalised diagonal, row) order with columns/positions."""
    diagonals = shape.diagonals()
    shift = 1 - min(diagonals)
    cells: list[tuple[int, int]] = []
    columns: list[int] = []
    positions: list[int] = []
    for d in sorted(diagonals):
        for p, cell in enumerate(diagonals[d], start=1):
            cells.append(cell)
            columns.append(d + shift)
            positions.append(p)
    return cells, columns, positions


def _shape_side(shape: Shape) -> tuple[list[tuple[int, int]], HeapPoset]:
    """The cells in layout order and the cell poset, built once per shape."""
    if shape._heap is None:
        cells, columns, positions = _diagonal_layout(shape)
        index = {cell: i for i, cell in enumerate(cells)}
        covers = set()
        for cell, i in index.items():
            r, c = cell
            for nb in ((r, c + 1), (r + 1, c)):
                if nb in shape.cell_set:
                    covers.add((i, index[nb]))
        shape._heap = cells, HeapPoset(tuple(columns), tuple(positions), frozenset(covers))
    return shape._heap


def shape_poset(shape: Shape) -> HeapPoset:
    """The cell poset of a shape: each cell below its right and lower neighbour."""
    return _shape_side(shape)[1]


def nu(word: Word, shape: Shape) -> Tableau:
    """Transport the build order of the word's heap onto the shape's cells."""
    cells, poset = _shape_side(shape)
    placed, positions, order = _drop(word)
    if _heap(placed, positions, order) != poset:
        raise ShapeMismatchError(
            f"heap of {word} is not isomorphic to the poset of {shape!r}"
        )
    pos: list[tuple[int, int] | None] = [None] * shape.size
    for cell, drop_idx in zip(cells, order):
        pos[drop_idx] = cell
    return Tableau(shape, tuple(pos))


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
