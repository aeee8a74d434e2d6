"""Seeded round trips above the exhaustive bound.

The hook bijections are checked exhaustively on the shapes the suite
enumerates.  Here they are checked on random fillings of shapes too large
to enumerate: ``phi_inverse`` undoes ``phi`` at every braid hook of each
``random_standard_tableau`` draw, and ``big_phi_inverse`` undoes
``big_phi`` at every up-braid of the staircases' draws sent through
``nu_inverse``.
"""

import random

import pytest

from braidhooks.heaps import nu_inverse
from braidhooks.homomesy import _is_braid_at, big_phi, big_phi_inverse
from braidhooks.tableaux import Shape, braid_hooks, phi, phi_inverse, random_standard_tableau

DRAWS = 100
STAIRCASES = [(7, 6, 5, 4, 3, 2, 1), (8, 7, 6, 5, 4, 3, 2, 1)]


def draws(outer: tuple[int, ...]) -> list:
    rng = random.Random(repr(outer))
    shape = Shape.right(outer)
    return [random_standard_tableau(shape, rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("outer, trips", [
    (STAIRCASES[0], 119), (STAIRCASES[1], 110), ((9, 7, 4, 1), 127),
], ids=repr)
def test_phi_inverse_undoes_phi_at_every_braid_hook(outer, trips):
    checked = 0
    for t in draws(outer):
        for k in braid_hooks(t):
            assert phi_inverse(phi(k, t)) == (k, t), (outer, k, t.pos)
            checked += 1
    assert checked == trips  # the draws are seeded


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
