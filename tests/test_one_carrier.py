"""One carrier: a standard filling is a linear extension of its shape.

A ``Tableau`` is a ``LinearExtension`` of its ``Shape`` over the cells'
integer ids, so it toggles by the extension's one commute test, the
down-set bit.  The reference here is the test fillings once had of their
own: tau_i swaps the cells of i and i+1 when they share neither row nor
column.  The two agree on every shape, gaps in its rows and columns too,
because each cell covers the nearest cell before it in its row and in its
column.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from braidhooks.homomesy import tau_parity
from braidhooks.posets import (
    LinearExtension,
    Poset,
    descents,
    diamond_poset,
    linear_extensions,
    poset_phi,
    poset_phi_inverse,
)
from braidhooks.tableaux import Shape, Tableau, standard_tableaux

from test_carriers import SHAPES

GAPS = [[(1, 1), (1, 3)], [(1, 1), (3, 1)], [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)],
        [(1, 2), (1, 4), (2, 1), (2, 4), (4, 1), (4, 2)]]
FAMILIES = {**SHAPES, "staircase": [Shape.right((6, 5, 4, 3, 2, 1))],
            "gaps": [Shape.from_cells(cells) for cells in GAPS]}


def row_column_toggle(pos: tuple, i: int) -> tuple:
    """tau_i on raw cells: swap the cells of i and i+1 when they share
    neither row nor column."""
    a, b = pos[i - 1], pos[i]
    if a[0] != b[0] and a[1] != b[1]:
        return pos[:i - 1] + (b, a) + pos[i + 1:]
    return pos


def row_reading_word(pos: tuple) -> tuple:
    """The entries cell by cell, in (row, column) order."""
    return tuple(v for _, v in sorted(zip(pos, range(1, len(pos) + 1))))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fillings_are_the_extensions_of_their_shape(family):
    for shape in FAMILIES[family]:
        fillings = standard_tableaux(shape)
        assert all(isinstance(t, LinearExtension) for t in fillings)
        assert sorted(t.ids for t in fillings) == [e.ids for e in linear_extensions(shape)]
        for t in fillings:
            pos = t.pos
            assert t.key() == row_reading_word(pos)
            for i in range(1, t.size):
                assert t.tau(i).pos == row_column_toggle(pos, i), (shape, pos, i)


def test_labels_outside_one_to_size_are_refused():
    t = standard_tableaux(Shape.right((2, 1)))[0]
    assert [t.cell_of(v) for v in range(1, t.size + 1)] == list(t.pos)
    for label in (0, -1, t.size + 1):
        with pytest.raises(IndexError, match=rf"^label {label} outside 1\.\.3$"):
            t.cell_of(label)
    ext = linear_extensions(diamond_poset())[0]
    assert [ext.element(m) for m in range(1, 5)] == list(ext.seq)
    for label in (0, 5):
        with pytest.raises(IndexError, match=rf"^label {label} outside 1\.\.4$"):
            ext.element(label)


def test_label_of_an_element_outside_the_poset_is_a_value_error():
    ext = linear_extensions(diamond_poset())[0]
    assert [ext.label(e) for e in ext.seq] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        ext.label("middle")
    t = standard_tableaux(Shape.right((2, 1)))[0]
    assert [t.entry(cell) for cell in t.pos] == [1, 2, 3]
    with pytest.raises(ValueError):
        t.entry((2, 1))


def test_equal_extensions_list_their_elements_alike():
    ab = LinearExtension(Poset(["a", "b"], []), ("a", "b"))
    assert ab == LinearExtension(Poset(["a", "b"], [("a", "b")]), ("a", "b"))
    # the same labels over another element order are other ids
    ba = LinearExtension(Poset(["b", "a"], []), ("a", "b"))
    assert ab.seq == ba.seq and ab.ids != ba.ids and ab != ba


def test_fillings_of_equal_shapes_are_equal():
    shape = Shape.right((3, 2, 1))
    t = standard_tableaux(shape)[1]
    for again in (Tableau(Shape.right((3, 2, 1)), t.pos),
                  Tableau(Shape.from_cells(reversed(shape.cells)), t.pos),
                  LinearExtension(shape, t.pos)):
        assert again == t and hash(again) == hash(t)
    assert Tableau(Shape.right((3, 2)), standard_tableaux(Shape.right((3, 2)))[0].pos) != t


def test_operators_keep_the_filling_type():
    ideal = frozenset({(1, 1)})
    moved = 0
    for t in standard_tableaux(Shape.right((3, 2, 1))):
        for parity in ("odd", "even"):
            assert type(tau_parity(t, parity)) is Tableau
        if (1, 1) in descents(t, ideal):
            image = poset_phi((1, 1), t, ideal)
            assert type(image) is Tableau
            assert poset_phi_inverse(image, ideal) == ((1, 1), t)
            moved += 1
    assert moved


def test_a_gap_in_a_row_or_column_keeps_its_cells_ordered():
    for cells in GAPS[:2]:
        shape = Shape.from_cells(cells)
        t = Tableau(shape, cells)
        assert t.tau(1).pos == row_column_toggle(t.pos, 1) == t.pos
        assert standard_tableaux(shape) == [t]
        with pytest.raises(ValueError, match="not standard"):
            Tableau(shape, cells[::-1])


def test_extensions_refuse_assignment_and_the_cache_keeps_them():
    poset = diamond_poset()
    found = linear_extensions(poset)
    walked = [x.ids for x in found]
    filling = standard_tableaux(Shape.right((3, 2, 1)))[0]
    for x in (found[0], filling):
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'ids'"):
            x.ids = tuple(reversed(x.ids))
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'poset'"):
            del x.poset
        with pytest.raises(AttributeError):
            x.note = "anything"
    assert [x.ids for x in linear_extensions(poset)] == walked
    assert len(set(linear_extensions(poset))) == len(walked)


@pytest.mark.parametrize("duplicate", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_copies_round_trip_to_an_equal_object(duplicate):
    for x in (standard_tableaux(Shape.right((4, 3, 2, 1)))[5],
              linear_extensions(diamond_poset())[1]):
        y = duplicate(x)
        assert type(y) is type(x)
        assert y == x and y.ids == x.ids and y.seq == x.seq
        with pytest.raises(FrozenInstanceError):
            y.ids = x.ids
