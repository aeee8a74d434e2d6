"""The three carriers of the toggle group toggle alike.

A standard filling of a shape, the word ``nu_inverse`` reads from it and
the linear extension of the shape's cell poset it defines are one object,
and ``tau_i`` (swap labels i and i+1 when the two elements are
incomparable) must act on all three in the same way.  A filling is a
linear extension, so two commute tests remain, the down-set bit and the
word's letter distance, and this pins down that they agree.
"""

import pytest

from braidhooks.heaps import nu_inverse, shape_poset
from braidhooks.homomesy import tau_parity
from braidhooks.posets import LinearExtension, _unwind
from braidhooks.tableaux import Shape, standard_tableaux, tau

from helpers import diagonal_cells, partitions, skew_test_shapes, strict_partitions

MAX_CELLS = 9

SHAPES = {
    "right": [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)],
    "half-right": [
        Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)
    ],
    # the helper bounds the outer shape, and its nonempty inner partition
    # removes at least one cell
    "skew": skew_test_shapes(MAX_CELLS + 1),
}


def _one_at_a_time(x, parity: str):
    for i in range(1 if parity == "odd" else 2, x.size, 2):
        x = x.tau(i)
    return x


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_carriers_toggle_alike(family):
    for shape in SHAPES[family]:
        poset = shape_poset(shape)
        element = dict(zip(diagonal_cells(shape), poset.elements))
        n = shape.size

        def extension(t):
            return LinearExtension(poset, tuple(element[cell] for cell in t.pos))

        for t in standard_tableaux(shape):
            ext = extension(t)
            word = nu_inverse(t)
            for i in range(1, n):
                moved = tau(t, i)
                assert extension(moved) == ext.tau(i), (shape, t, i)
                assert nu_inverse(moved) == word.tau(n - i), (shape, t, i)
            for x in (t, word, ext):
                for parity in ("odd", "even"):
                    assert tau_parity(x, parity) == _one_at_a_time(x, parity), (x, parity)


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_unwind_takes_the_parity_steps_in_one_pass(family):
    # x.tau_{o(m)}...tau_{o(1)}, the product behind Phi, one parity at a time
    for shape in SHAPES[family]:
        poset = shape_poset(shape)
        element = dict(zip(diagonal_cells(shape), poset.elements))
        for t in standard_tableaux(shape):
            ext = LinearExtension(poset, tuple(element[cell] for cell in t.pos))
            for x in (t, nu_inverse(t), ext):
                for m in range(x.size):
                    y = x
                    for j in range(m, 0, -1):
                        y = _one_at_a_time(y, "odd" if j % 2 else "even")
                    assert _unwind(x, m) == y, (x, m)
