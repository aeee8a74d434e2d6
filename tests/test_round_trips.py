"""Seeded round trips above the exhaustive bound.

The hook bijections are checked exhaustively on the shapes the suite
enumerates.  Here they are checked on random fillings of shapes too large
to enumerate: ``phi_inverse`` undoes ``phi`` at every braid hook of each
``random_standard_tableau`` draw, and ``big_phi_inverse`` undoes
``big_phi`` at every up-braid of the staircases' draws sent through
``nu_inverse``; ``poset_phi_inverse`` undoes ``poset_phi`` at every descent
of the draws of right:9,8,...,1, read as linear extensions of the shape's
cell poset, for the ideals "the first k rows".  The braid hooks of each
shape's draws, counted as windows by ``_window_sum``, are its phi trips.
"""

import random

import pytest

from braidhooks.heaps import nu_inverse
from braidhooks.homomesy import _is_braid_at, big_phi, big_phi_inverse
from braidhooks.posets import (LinearExtension, _window_sum, descents, poset_phi,
                               poset_phi_inverse)
from braidhooks.tableaux import (
    Shape,
    _hook_windows,
    braid_hooks,
    phi,
    phi_inverse,
    random_standard_tableau,
)

DRAWS = 100
STAIRCASES = [(7, 6, 5, 4, 3, 2, 1), (8, 7, 6, 5, 4, 3, 2, 1), (9, 8, 7, 6, 5, 4, 3, 2, 1)]


def draws(outer: tuple[int, ...]) -> list:
    rng = random.Random(repr(outer))
    shape = Shape.right(outer)
    return [random_standard_tableau(shape, rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("outer, trips", [
    (STAIRCASES[0], 119), (STAIRCASES[1], 110), ((9, 7, 4, 1), 127),
], ids=repr)
def test_phi_inverse_undoes_phi_at_every_braid_hook(outer, trips):
    checked = 0
    ts = draws(outer)
    for t in ts:
        for k in braid_hooks(t):
            assert phi_inverse(phi(k, t)) == (k, t), (outer, k, t.pos)
            checked += 1
    assert checked == trips == _window_sum(ts, _hook_windows)  # the draws are seeded


@pytest.mark.parametrize("outer, trips", [(STAIRCASES[0], 119), (STAIRCASES[1], 110)], ids=repr)
def test_big_phi_inverse_undoes_big_phi_at_every_up_braid(outer, trips):
    checked = 0
    for t in draws(outer):
        w = nu_inverse(t)
        for k in range(2, len(w)):
            if _is_braid_at(w, k):
                assert big_phi_inverse(big_phi(k, w)) == (k, w), (outer, k, w.letters)
                checked += 1
    assert checked == trips  # nu_inverse sends each braid hook to an up-braid


def test_poset_phi_inverse_undoes_poset_phi_above_the_enumeration_bound():
    shape = Shape.right(STAIRCASES[2])  # 45 cells: a bounded poset
    checked = 0
    for t in draws(STAIRCASES[2]):
        ext = LinearExtension(shape, t.pos)
        for k in range(1, len(STAIRCASES[2])):
            ideal = frozenset(cell for cell in shape.cells if cell[0] <= k)
            for p in descents(ext, ideal):
                image = poset_phi(p, ext, ideal)
                assert poset_phi_inverse(image, ideal) == (p, ext), (k, p, t.pos)
                checked += 1
    assert checked == 993  # the draws are seeded
