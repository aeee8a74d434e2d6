"""Justified standard tableaux and their promotion-type operator algebra.

Shapes are partitions drawn with rows flush right ("right"), staggered one
step per row ("half-right"), or right-justified with an inner partition
removed ("skew-right").  Cells are absolute ``(row, column)`` pairs with
row 1 at the top, and a standard filling is strictly increasing along rows
and along absolute columns.  A ``Shape`` is the ``Poset`` of its cells,
each covering the nearest cell to its left in its row and the nearest
above it in its column, and a ``Tableau`` is a ``LinearExtension`` of it:
it holds the cell ids in value order, toggles by the extension's down-set
bit, and adds only the tableau reading (``pos``, ``entries``, the
row-reading ``key``, and ``_sorted``, which builds that word as one byte
translation of the ids).  ``standard_tableaux`` walks the shape's own
down-set table, built once per shape, and ``random_standard_tableau``
places a random addable cell at each step; fillings are built unchecked by
``posets._build``.  A braid hook is a window of three cell ids
(``_hook_windows``), which ``expected_braid_hooks`` and the orbit statistic
count with ``posets._window_sum``; ``braid_hooks`` lists one filling's.

The operators here are all right actions: ``t.fg`` means apply ``f`` first.
``t.tau(i)`` swaps the entries ``i`` and ``i+1`` when the result is again
standard; partial promotion ``d_k = tau_k ... tau_{N-1}`` and partial
inverse promotion ``d*_k = tau_{k-1} ... tau_1`` compose into the hook
bijections ``phi`` and ``psi``.  Full promotion is also implemented by
jeu-de-taquin sliding, which doubles as an independent cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .errors import (
    DisconnectedShapeError,
    NotABraidHookError,
    ShapeConditionError,
    default_cap,
)
from .posets import (LinearExtension, Poset, _addable, _build, _extensions, _is_extension,
                     _window_sum)

__all__ = [
    "Shape",
    "Tableau",
    "SlidingPath",
    "Crossing",
    "standard_tableaux",
    "random_standard_tableau",
    "braid_hooks",
    "partial_promotion",
    "partial_inverse_promotion",
    "promotion",
    "inverse_promotion",
    "promotion_via_taus",
    "inverse_promotion_via_taus",
    "promotion_path",
    "inverse_promotion_path",
    "crossings",
    "phi",
    "phi_inverse",
    "psi",
    "evacuation",
    "dual_evacuation",
    "conjugate",
    "staircase_pair",
    "partial_braid_hooks",
    "expected_braid_hooks",
    "updown_crossing_balance",
    "tableau_to_text",
    "tableau_to_json",
    "tableau_from_json",
]


def _check_partition(parts: Sequence[int], strict: bool = False) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p <= 0 for p in parts):
        raise ShapeConditionError(f"{parts} is not a partition with positive parts")
    for a, b in zip(parts, parts[1:]):
        if b > a or (strict and b >= a):
            kind = "strictly" if strict else "weakly"
            raise ShapeConditionError(f"{parts} is not {kind} decreasing")
    return parts


def _skew_parts(outer: Sequence[int], inner: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The parts, ``inner`` padded with zeros to ``outer``'s length, once
    checked: ``ShapeConditionError`` unless inner is a partition inside outer."""
    outer = _check_partition(outer)
    inner = tuple(int(p) for p in inner)
    if inner and any(b > a for a, b in zip(inner, inner[1:])):
        raise ShapeConditionError(f"inner {inner} is not weakly decreasing")
    inner = inner + (0,) * (len(outer) - len(inner))
    if len(inner) > len(outer) or any(not 0 <= m <= l for l, m in zip(outer, inner)):
        raise ShapeConditionError(f"inner {inner} not contained in {outer}")
    return outer, inner


class Shape(Poset):
    """A finite cell set in one of the justification modes, and its cell
    poset: the elements are the cells in ``cells`` order, and each cell
    covers the nearest cell to its left in its row and above it in its column.

    ``right`` anchors every row's rightmost cell at column ``outer[0]``;
    ``skew-right`` is that shape with the rightmost ``inner[r]`` cells of
    row r+1 removed, so that row ends at column ``outer[0] - inner[r]``;
    ``half-right`` anchors row r's rightmost cell at column ``outer[0]-r+1``.
    ``cells`` mode carries an explicit cell set (conjugated shapes).  Shapes
    are equal when their cell sets are.
    """

    __slots__ = ("mode", "outer", "inner", "cells", "cell_set", "_rows", "_heap", "_hooks")

    def __init__(self, mode: str, cells: Iterable[tuple[int, int]],
                 outer: tuple[int, ...] | None = None,
                 inner: tuple[int, ...] | None = None):
        self.mode = mode
        self.cells = tuple(sorted(cells))
        self.cell_set = frozenset(self.cells)
        if not self.cells:
            raise ShapeConditionError("shape has no cells")
        if len(self.cell_set) != len(self.cells):
            raise ShapeConditionError("duplicate cells")
        self.outer = outer
        self.inner = inner
        rows: dict[int, list[int]] = {}
        columns: dict[int, list[int]] = {}
        for r, c in self.cells:  # sorted, so each list ascends
            rows.setdefault(r, []).append(c)
            columns.setdefault(c, []).append(r)
        self._rows = {r: tuple(cs) for r, cs in rows.items()}
        # ``nu``'s column table, letters and whether the shape is a heap:
        # ``heaps._stacks`` and ``nu_inverse``'s ``a a`` check run only off a
        # heap, or on a word ``nu`` cannot place; built by ``heaps``
        self._heap = None
        self._hooks = None  # braid-hook windows as cell-id triples, built by ``_hook_windows``
        super().__init__(self.cells, [
            *[((r, a), (r, b)) for r, cs in rows.items() for a, b in zip(cs, cs[1:])],
            *[((a, c), (b, c)) for c, rs in columns.items() for a, b in zip(rs, rs[1:])]])

    @classmethod
    def right(cls, outer: Sequence[int]) -> "Shape":
        outer = _check_partition(outer)
        width = outer[0]
        cells = [
            (r + 1, c)
            for r, length in enumerate(outer)
            for c in range(width - length + 1, width + 1)
        ]
        return cls("right", cells, outer=outer)

    @classmethod
    def half_right(cls, outer: Sequence[int]) -> "Shape":
        outer = _check_partition(outer, strict=True)
        width = outer[0]
        cells = []
        for r, length in enumerate(outer):
            edge = width - r
            cells.extend((r + 1, c) for c in range(edge - length + 1, edge + 1))
        return cls("half-right", cells, outer=outer)

    @classmethod
    def skew_right(cls, outer: Sequence[int], inner: Sequence[int] = ()) -> "Shape":
        outer, inner = _skew_parts(outer, inner)
        width = outer[0]
        cells = []
        for r, (length, cut) in enumerate(zip(outer, inner)):
            cells.extend(
                (r + 1, c) for c in range(width - length + 1, width - cut + 1)
            )
        return cls("skew-right", cells, outer=outer, inner=inner)

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]]) -> "Shape":
        return cls("cells", cells)

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self.cell_set

    def __eq__(self, other) -> bool:
        return isinstance(other, Shape) and self.cell_set == other.cell_set

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        if self.mode == "cells":
            return f"Shape.from_cells({list(self.cells)!r})"
        if self.mode == "skew-right":
            return f"Shape.skew_right({self.outer!r}, {self.inner!r})"
        name = self.mode.replace("-", "_")
        return f"Shape.{name}({self.outer!r})"

    def row_columns(self) -> dict[int, tuple[int, ...]]:
        return self._rows

    def diagonals(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Cells grouped by the diagonal index c - r + 1, top-down per group
        (``cells`` is sorted)."""
        groups: dict[int, list[tuple[int, int]]] = {}
        for r, c in self.cells:
            groups.setdefault(c - r + 1, []).append((r, c))
        return {d: tuple(g) for d, g in groups.items()}

    def is_connected(self) -> bool:
        """Consecutive rows must share at least one vertical cell edge."""
        rows = sorted(self._rows)
        if rows != list(range(rows[0], rows[-1] + 1)):
            return False
        for r in rows[:-1]:
            here = set(self._rows[r])
            below = set(self._rows[r + 1])
            if not here & below:
                return False
        return True


class Tableau(LinearExtension):
    """A standard filling of a shape: a linear extension of its cell poset,
    so ``ids[v-1]`` is the index of the cell holding v, ``pos[v-1]`` that
    cell, and ``shape`` the poset."""

    __slots__ = ()

    def __init__(self, shape: Shape, pos: Iterable[tuple[int, int]],
                 _checked: bool = False):
        pos = tuple(pos)
        if not _checked and not _is_extension(shape._index, shape._below, pos):
            raise ValueError(f"filling {pos} is not standard on {shape!r}")
        self._set_ambient(self, shape)
        self._set_labels(self, tuple(map(shape._index.__getitem__, pos)))

    shape = LinearExtension.poset
    pos = LinearExtension.seq
    cell_of = LinearExtension.element
    entry = LinearExtension.label

    def entries(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.shape.cells, self.key()))

    def row_values(self) -> list[list[int]]:
        word = iter(self.key())  # cells in ``cells`` order, so row by row
        rows = sorted(self.shape.row_columns().items())
        return [list(islice(word, len(cols))) for _, cols in rows]

    def key(self) -> tuple[int, ...]:
        """The canonical sort key: the row-reading word (entries cell by
        cell).  ``_sorted`` orders by the same word as bytes, not by this."""
        word = [0] * len(self.ids)
        for v, i in enumerate(self.ids, 1):
            word[i] = v
        return tuple(word)

    @staticmethod
    def _sorted(states: list["Tableau"]) -> list["Tableau"]:
        """The fillings, all of one shape, in ``key()`` order, stable.

        ``bytes.maketrans(bytes(ids), bytes(range(1, n + 1)))`` maps byte
        ``ids[v-1]`` to v, so its first n bytes are the row-reading word;
        byte keys of one length compare as those tuples do.  Every key is
        built by C-level maps, and the indices are sorted by them.  A label
        above 255 fits no byte: larger shapes sort by ``key``.
        """
        n = len(states[0].ids) if states else 0
        if n > 255:
            return sorted(states, key=Tableau.key)
        ids = map(attrgetter("ids"), states)
        words = map(bytes.maketrans, map(bytes, ids), repeat(bytes(range(1, n + 1))))
        keys = list(map(itemgetter(slice(n)), words))
        return list(map(states.__getitem__, sorted(range(len(states)), key=keys.__getitem__)))

    def __repr__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.row_values())


def standard_tableaux(shape: Shape, cap: int | None = None) -> list[Tableau]:
    """All standard fillings, sorted lexicographically by row-reading word
    (``Tableau._sorted``); ``ExplosionGuardError`` when there are more than
    ``cap``."""
    cap = default_cap() if cap is None else cap
    return Tableau._sorted(_extensions(shape._downsets(cap, "fillings"), range(shape.size),
                                       Tableau, shape, cap, "fillings"))


def random_standard_tableau(shape: Shape, rng) -> Tableau:
    """A standard filling sampled by choosing a random addable cell each step."""
    below = shape._below
    mask, ids = 0, []
    for _ in below:
        i = rng.choice(_addable(below, mask))
        mask |= 1 << i
        ids.append(i)
    return _build(Tableau, shape, tuple(ids))


def braid_hooks(t: Tableau) -> list[int]:
    """All k with k-1 left of k, k+1 below k, and no cell below k-1."""
    hooks = []
    shape, pos = t.shape, t.pos
    for k in range(2, t.size):
        r, c = pos[k - 2]
        if pos[k - 1] == (r, c + 1) and pos[k] == (r + 1, c + 1):
            if (r + 1, c) not in shape:
                hooks.append(k)
    return hooks


def _hook_windows(chunk: list[Tableau]) -> list[tuple[int, int, int]]:
    """The braid-hook windows of the chunk's shape, built once: the ids of
    cells (r, c), (r, c+1), (r+1, c+1) with (r+1, c) outside the shape."""
    shape = chunk[0].shape
    if shape._hooks is None:
        index = shape._index
        shape._hooks = [(index[r, c], index[r, c + 1], index[r + 1, c + 1])
                        for r, c in shape.cells
                        if (r, c + 1) in index and (r + 1, c + 1) in index
                        and (r + 1, c) not in index]
    return shape._hooks


def partial_promotion(t: Tableau, k: int) -> Tableau:
    """d_k = tau_k tau_{k+1} ... tau_{N-1}; k = N is the identity."""
    if not 1 <= k <= t.size:
        raise IndexError(f"k {k} outside 1..{t.size}")
    return t.taus(range(k, t.size))


def partial_inverse_promotion(t: Tableau, k: int) -> Tableau:
    """d*_k = tau_{k-1} tau_{k-2} ... tau_1; k = 1 is the identity."""
    if not 1 <= k <= t.size:
        raise IndexError(f"k {k} outside 1..{t.size}")
    return t.taus(range(k - 1, 0, -1))


def promotion_via_taus(t: Tableau) -> Tableau:
    return partial_promotion(t, 1)


def inverse_promotion_via_taus(t: Tableau) -> Tableau:
    return partial_inverse_promotion(t, t.size)


def _slide(t: Tableau, forward: bool) -> tuple[Tableau, tuple[tuple[int, int], ...]]:
    """Forward: remove 1, slide the smaller of the right/lower neighbours,
    append N+1.  Backward: remove N, slide the larger of the left/upper
    neighbours, prepend 1.  The path runs top-left to bottom-right."""
    n = t.size
    grid = dict(zip(t.pos, range(1, n + 1)))
    step, pick, last = (1, min, n + 1) if forward else (-1, max, 0)
    empty = t.cell_of(1 if forward else n)
    path = [empty]
    del grid[empty]
    while True:
        r, c = empty
        candidates = [
            (grid[cell], cell)
            for cell in ((r, c + step), (r + step, c))
            if cell in grid
        ]
        if not candidates:
            break
        value, cell = pick(candidates)
        grid[empty] = value
        del grid[cell]
        empty = cell
        path.append(empty)
    grid[empty] = last
    index, ids = t.shape._index, [0] * n
    for cell, value in grid.items():
        ids[value - 2 if forward else value] = index[cell]
    return _build(Tableau, t.shape, tuple(ids)), tuple(path if forward else path[::-1])


def promotion(t: Tableau) -> Tableau:
    """Full promotion by jeu-de-taquin sliding."""
    return _slide(t, True)[0]


def inverse_promotion(t: Tableau) -> Tableau:
    """Full inverse promotion by jeu-de-taquin sliding."""
    return _slide(t, False)[0]


@dataclass(frozen=True)
class SlidingPath:
    """An undirected lattice path of cells, stored top-left to bottom-right."""

    cells: tuple[tuple[int, int], ...]
    kind: str  # "promotion" | "inverse-promotion"

    def steps(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return list(zip(self.cells, self.cells[1:]))

    def horizontal_steps(self) -> frozenset:
        return frozenset(s for s in self.steps() if s[0][0] == s[1][0])

    def vertical_steps(self) -> frozenset:
        return frozenset(s for s in self.steps() if s[0][1] == s[1][1])


def promotion_path(t: Tableau) -> SlidingPath:
    """Cells visited by the empty slot during promotion, from the cell of 1."""
    return SlidingPath(_slide(t, True)[1], "promotion")


def inverse_promotion_path(t: Tableau) -> SlidingPath:
    """Cells visited during inverse promotion, reordered top-left first."""
    return SlidingPath(_slide(t, False)[1], "inverse-promotion")


@dataclass(frozen=True)
class Crossing:
    """A path crossing.  RtoL swaps (R above L) to (L above R); LtoR the reverse."""

    position: tuple[int, int]
    k: int
    direction: str  # "RtoL" | "LtoR"


def crossings(t: Tableau) -> list[Crossing]:
    """All crossings of the promotion and inverse promotion paths.

    A crossing in the usual direction sits at a left inner corner: the
    promotion path steps right into the corner cell, the inverse path steps
    down out of it, and the cell below the step's origin is missing.  The
    reverse crossing (possible only on jagged skew boundaries) is the mirror
    with the cell above-right missing.
    """
    shape = t.shape
    left = promotion_path(t)
    right = inverse_promotion_path(t)
    right_h = right.horizontal_steps()
    right_v = right.vertical_steps()
    found = []
    for (a, b) in left.steps():
        if a[0] == b[0]:  # horizontal step a -> b of L
            below_b = (b[0] + 1, b[1])
            if (b, below_b) in right_v and (a[0] + 1, a[1]) not in shape:
                found.append(Crossing(b, t.entry(b), "RtoL"))
        else:  # vertical step a -> b of L
            right_of_b = (b[0], b[1] + 1)
            if (b, right_of_b) in right_h and (a[0], a[1] + 1) not in shape:
                found.append(Crossing(b, t.entry(b), "LtoR"))
    found.sort(key=lambda cr: cr.position)
    return found


def phi(k: int, t: Tableau) -> Tableau:
    """The hook bijection phi(k, t) = t.d*_k d_k for a braid hook k of t."""
    if k not in braid_hooks(t):
        raise NotABraidHookError(f"{k} is not a braid hook of\n{t!r}")
    return partial_promotion(partial_inverse_promotion(t, k), k)


def _require_pointed_right(shape: Shape) -> None:
    if shape.mode != "right" or shape.outer is None:
        raise ShapeConditionError("operation needs a right-justified shape")
    outer = shape.outer
    second = outer[1] if len(outer) > 1 else 0
    if not (len(outer) >= 2 and outer[0] > second and outer[-1] == 1):
        raise ShapeConditionError(
            f"shape {outer} needs two or more rows, a strictly longer first row,"
            " and a final row of one cell"
        )


def phi_inverse(t: Tableau) -> tuple[int, Tableau]:
    """Recover (k, t') with phi(k, t') = t via the unique path crossing."""
    _require_pointed_right(t.shape)
    found = crossings(t)
    if len(found) != 1 or found[0].direction != "RtoL":
        raise ValueError(f"expected a unique crossing, found {found}")
    k = found[0].k
    undone = t.taus([*range(t.size - 1, k - 1, -1), *range(1, k)])  # d_k^-1, d*_k^-1
    if k not in braid_hooks(undone):
        raise AssertionError(f"crossing k={k} did not unwind to a braid hook")
    return k, undone


psi = phi  # the same operator, applied to half-right-justified tableaux


def evacuation(t: Tableau) -> Tableau:
    """(tau_1..tau_{N-1})(tau_1..tau_{N-2})...(tau_1), left factor first."""
    seq: list[int] = []
    for top in range(t.size - 1, 0, -1):
        seq.extend(range(1, top + 1))
    return t.taus(seq)


def dual_evacuation(t: Tableau) -> Tableau:
    """(tau_{N-1}..tau_1)(tau_{N-1}..tau_2)...(tau_{N-1}), left factor first."""
    seq: list[int] = []
    for low in range(1, t.size):
        seq.extend(range(t.size - 1, low - 1, -1))
    return t.taus(seq)


def conjugate(t: Tableau) -> Tableau:
    """Reflect in the bottom-left/top-right diagonal and reverse the entries.

    The image is re-anchored so its smallest row and column are 1.
    """
    reflected = [(-c, -r) for (r, c) in t.pos]
    min_r = min(r for r, _ in reflected)
    min_c = min(c for _, c in reflected)
    moved = [(r - min_r + 1, c - min_c + 1) for (r, c) in reflected]
    shape = Shape.from_cells(moved)
    return _build(Tableau, shape, tuple(shape._index[cell] for cell in reversed(moved)))


def staircase_pair(t: Tableau) -> Tableau:
    """Adjoin (t.evacuation) conjugated and shifted by N to the right of t.

    The top cell of the conjugate lands immediately right of the rightmost
    cell of t's first row; the union is a right-justified standard tableau.
    """
    n = t.size
    partner = conjugate(evacuation(t))
    own = t.pos
    top_row = min(r for r, _ in own)
    anchor_col = max(c for r, c in own if r == top_row)
    top_cell = min(partner.shape.cells)  # unique cell in the top row
    dr = top_row - top_cell[0]
    dc = anchor_col + 1 - top_cell[1]
    shifted = [(r + dr, c + dc) for (r, c) in partner.pos]
    if set(shifted) & set(own):
        raise ShapeConditionError("staircase pair parts overlap")
    pos = own + tuple(shifted)
    union = sorted(set(pos))
    rows: dict[int, list[int]] = {}
    for r, c in union:
        rows.setdefault(r, []).append(c)
    width = max(c for _, c in union)
    outer = []
    for r in sorted(rows):
        cols = sorted(rows[r])
        if cols != list(range(cols[0], width + 1)):
            raise ShapeConditionError("staircase pair is not right-justified")
        outer.append(len(cols))
    shape = Shape.right(tuple(outer))
    return Tableau(shape, pos)


def partial_braid_hooks(t: Tableau, side: str) -> list[int]:
    """Inner corners with consecutive values on the promotion (left) or
    inverse promotion (right) path; the source cell has no cell below."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    path = promotion_path(t) if side == "left" else inverse_promotion_path(t)
    cells = path.cells
    shape = t.shape
    hooks = []
    for a, b, d in zip(cells, cells[1:], cells[2:]):
        if b != (a[0], a[1] + 1) or d != (b[0] + 1, b[1]):
            continue  # need a right step then a down step
        if (a[0] + 1, a[1]) in shape:
            continue
        if side == "left" and t.entry(d) == t.entry(b) + 1:
            hooks.append(t.entry(b))
        elif side == "right" and t.entry(b) == t.entry(a) + 1:
            hooks.append(t.entry(b))
    return sorted(hooks)


def expected_braid_hooks(shape: Shape, cap: int | None = None) -> Fraction:
    """Exact average of the braid-hook count over all standard fillings."""
    tableaux = standard_tableaux(shape, cap)
    return Fraction(_window_sum(tableaux, _hook_windows), len(tableaux))


def updown_crossing_balance(shape: Shape, cap: int | None = None) -> dict:
    """Per-tableau difference of RtoL minus LtoR crossings on a skew shape."""
    if shape.mode != "skew-right":
        raise ShapeConditionError("crossing balance is defined for skew-right shapes")
    outer = shape.outer
    second = outer[1] if len(outer) > 1 else 0
    if not (outer[0] > second and outer[-1] == 1):
        raise ShapeConditionError(
            f"shape {outer} needs a strictly longer first row and a final row of one cell"
        )
    if len(shape.row_columns()) != len(outer):
        raise ShapeConditionError("inner partition removes a whole row")
    if not shape.is_connected():
        raise DisconnectedShapeError(f"skew shape {outer}/{shape.inner} is disconnected")
    diffs = []
    for t in standard_tableaux(shape, cap):
        found = crossings(t)
        up = sum(1 for cr in found if cr.direction == "RtoL")
        down = sum(1 for cr in found if cr.direction == "LtoR")
        diffs.append(up - down)
    return {"diffs": diffs, "all_diffs_one": all(d == 1 for d in diffs)}


def tableau_to_text(t: Tableau) -> str:
    """One row per line; absent cells inside a row's span print as dots."""
    entry = t.entries()
    lines = []
    for r, cols in sorted(t.shape.row_columns().items()):
        tokens = []
        for c in range(1, max(cols) + 1):
            if (r, c) in t.shape.cell_set:
                tokens.append(str(entry[(r, c)]))
            else:
                tokens.append(".")
        lines.append(" ".join(tokens))
    return "\n".join(lines)


def tableau_to_json(t: Tableau) -> str:
    shape = t.shape
    desc: dict = {"mode": shape.mode}
    if shape.mode == "cells":
        desc["cells"] = [list(cell) for cell in shape.cells]
    else:
        desc["outer"] = list(shape.outer)
        desc["inner"] = list(shape.inner) if shape.inner else None
    return json.dumps({"shape": desc, "rows": t.row_values()})


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ValueError(f"tableau JSON: {what} must be a list of integers, not {value!r}")
    return value


def tableau_from_json(text: str) -> Tableau:
    """The tableau ``tableau_to_json`` wrote.  A malformed document is a
    ``ValueError`` naming the problem."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("shape"), dict):
        raise ValueError("tableau JSON must be an object with a 'shape' object")
    desc, rows = data["shape"], data.get("rows")
    if not isinstance(rows, list):
        raise ValueError(f"tableau JSON: 'rows' must be a list of rows, not {rows!r}")
    values = [v for row in rows for v in _int_list(row, "each row")]
    mode = desc.get("mode")
    if mode == "cells":
        cells = desc.get("cells")
        if not isinstance(cells, list) or any(len(_int_list(cell, "each cell")) != 2
                                              for cell in cells):
            raise ValueError(f"tableau JSON: 'cells' must list [row, column] pairs, not {cells!r}")
        shape = Shape.from_cells([tuple(cell) for cell in cells])
    elif mode in ("right", "half-right", "skew-right"):
        outer = _int_list(desc.get("outer"), "'outer'")
        inner = _int_list(desc.get("inner") or [], "'inner'") if mode == "skew-right" else []
        _skew_parts(outer, inner)  # parts that fit, so their sums count the cells
        if sum(outer) - sum(inner) != len(values):  # checked before a huge shape is built
            raise ValueError(f"tableau JSON: the rows hold {len(values)} entries,"
                             f" the shape {sum(outer) - sum(inner)} cells")
        if mode == "skew-right":
            shape = Shape.skew_right(outer, inner)
        else:
            shape = Shape.right(outer) if mode == "right" else Shape.half_right(outer)
    else:
        raise ValueError(f"unknown shape mode {mode!r}")
    layout = sorted(shape.row_columns().items())
    if [len(row) for row in rows] != [len(cols) for _, cols in layout]:
        raise ValueError(f"tableau JSON: rows {rows} do not fit the rows of {shape!r}")
    if sorted(values) != list(range(1, shape.size + 1)):
        raise ValueError(f"tableau JSON: the entries must be 1..{shape.size}, each once")
    pos = [None] * shape.size
    for row, (r, cols) in zip(rows, layout):
        for value, c in zip(row, cols):
            pos[value - 1] = (r, c)
    return Tableau(shape, pos)
