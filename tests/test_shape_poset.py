"""A shape is its cell poset.

``Shape`` is a ``Poset`` whose elements are its cells in ``cells`` order,
each covering its left and upper neighbours, so its fillings are its
linear extensions and it keeps one down-set table, like every poset.
Shapes still compare and hash by their cell sets.
"""

import pytest

from braidhooks import posets
from braidhooks.posets import Poset, linear_extensions, order_ideals, verify_edges
from braidhooks.tableaux import (
    Shape,
    conjugate,
    expected_braid_hooks,
    standard_tableaux,
)

from test_lattice import SHAPES


def test_a_shape_is_its_cell_poset():
    shape = Shape.right((3, 2, 1))
    assert isinstance(shape, Poset)
    assert shape.elements == shape.cells
    assert shape.covers == {
        (a, b) for b in shape.cells for a in shape.cells
        if a in ((b[0], b[1] - 1), (b[0] - 1, b[1]))
    }
    assert shape.minimum() == (1, 1) and shape.maximum() == (3, 3)
    assert shape.less((1, 1), (3, 3)) and not shape.less((1, 3), (2, 2))
    assert shape.size == len(shape.cells) == 6


def test_fillings_are_the_linear_extensions():
    for shape in SHAPES:
        extensions = sorted(e.seq for e in linear_extensions(shape))
        assert extensions == sorted(t.pos for t in standard_tableaux(shape)), shape


def test_one_table_per_shape(monkeypatch):
    calls = []
    build = posets._lattice

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(posets, "_lattice", counted)
    shape = Shape.right((4, 3, 2, 1))
    for _ in range(3):
        assert len(standard_tableaux(shape)) == 12
        assert expected_braid_hooks(shape) == 1
    assert len(calls) == 1
    standard_tableaux(Shape.right((4, 3, 2, 1)))  # an equal shape is another object
    assert len(calls) == 2


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_every_ideal_of_a_staircase_is_an_edge_identity(rows):
    shape = Shape.right(tuple(range(rows, 0, -1)))
    ideals = [ideal for ideal in order_ideals(shape) if 0 < len(ideal) < shape.size]
    assert len(ideals) == 2 ** rows - 2  # 2**rows down-sets, less the empty and the whole
    assert all(verify_edges(shape, ideal)["ok"] for ideal in ideals)


def test_equal_shapes_stay_equal_and_hash_alike():
    shape = Shape.right((3, 2, 1))
    same = [Shape.right((3, 2, 1)), Shape.from_cells(reversed(shape.cells)),
            Shape.skew_right((3, 2, 1))]
    for other in same:
        assert other == shape and hash(other) == hash(shape)
    assert len({shape, *same}) == 1
    assert shape != Shape.half_right((3, 2, 1)) and shape != Shape.right((3, 2))
    t = standard_tableaux(shape)[0]
    assert conjugate(conjugate(t)).shape == shape
