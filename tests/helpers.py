"""Shared fixtures: building tableaux from row lists, test shape families."""

from braidhooks.tableaux import Shape, Tableau
from braidhooks.words import Permutation, Word


def tableau_of(shape: Shape, rows: list[list[int]]) -> Tableau:
    """Build a tableau from per-row value lists (present cells only)."""
    entry = {}
    for row_vals, (r, cols) in zip(rows, sorted(shape.row_columns().items())):
        assert len(row_vals) == len(cols), f"row {r}: {row_vals} vs columns {cols}"
        for v, c in zip(row_vals, cols):
            entry[(r, c)] = v
    pos = [cell for cell, v in sorted(entry.items(), key=lambda kv: kv[1])]
    return Tableau(shape, tuple(pos))


def first_reduced_word(perm: Permutation) -> Word:
    """Some reduced word for ``perm`` (peel descents from the right)."""
    popped: list[int] = []
    current = perm
    while True:
        descents = current.descents()
        if not descents:
            break
        i = descents[0]
        popped.append(i)
        current = current.times_s(i)
    return Word(tuple(reversed(popped)), perm.n)


def partitions(n: int, max_part: int | None = None):
    """All partitions of n, largest part first."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def strict_partitions(n: int, max_part: int | None = None):
    """Partitions of n into distinct parts, largest first."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in strict_partitions(n - first, first - 1):
            yield (first,) + rest


def pointed(outer: tuple[int, ...]) -> bool:
    """First row strictly longest, last row a single cell, two or more rows.

    The single-cell partition formally passes the row conditions but the
    sliding paths have no steps there, so the hook bijection is empty.
    """
    second = outer[1] if len(outer) > 1 else 0
    return len(outer) >= 2 and outer[0] > second and outer[-1] == 1


def pointed_partitions(max_cells: int):
    for n in range(1, max_cells + 1):
        for outer in partitions(n):
            if pointed(outer):
                yield outer


def skew_test_shapes(max_outer: int):
    """Connected pointed skew shapes with a nonempty inner partition."""
    shapes = []
    for total in range(2, max_outer + 1):
        for outer in partitions(total):
            if not pointed(outer) or len(outer) < 2:
                continue
            for inner_size in range(1, total):
                for inner in partitions(inner_size):
                    if len(inner) > len(outer):
                        continue
                    if any(m >= l for l, m in zip(outer, inner)):
                        continue  # keep every row nonempty
                    try:
                        shape = Shape.skew_right(outer, inner)
                    except ValueError:
                        continue
                    if shape.size != total - inner_size:
                        continue
                    if shape.is_connected():
                        shapes.append(shape)
    return shapes


def diagonal_cells(shape: Shape) -> list[tuple[int, int]]:
    """The cells by diagonal, left to right, each diagonal top-down: the
    order of the pieces (column, stack position) ``shape_poset`` names them by."""
    diagonals = shape.diagonals()
    return [cell for d in sorted(diagonals) for cell in diagonals[d]]
