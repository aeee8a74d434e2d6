"""Standardness and poset queries read off the lower-cover masks.

``Tableau(shape, pos)`` must accept a filling exactly when a rule written
here from each cell's right and lower neighbours does, and ``covers_of``,
``minimum``, ``maximum`` and ``descents`` must equal brute force over the
reduced cover pairs ``poset.covers``.
"""

import itertools
import random

import pytest

from braidhooks.posets import (
    Poset,
    descents,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
)
from braidhooks.tableaux import Shape, Tableau, standard_tableaux

from helpers import partitions, skew_test_shapes, strict_partitions
from test_downsets import random_poset
from test_nu_masks import disconnected_skew_shapes

MAX_CELLS = 6

SHAPES = {
    "right": [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)],
    "half-right": [
        Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)
    ],
    "skew": [s for s in skew_test_shapes(MAX_CELLS + 2) if s.size <= MAX_CELLS],
    "disconnected": disconnected_skew_shapes(MAX_CELLS + 1),
    # arbitrary cell sets: every set of 1 to 5 cells in a 2 x 4 box
    "cells": [
        Shape.from_cells(cells)
        for k in range(1, 6)
        for cells in itertools.combinations(itertools.product((1, 2), (1, 2, 3, 4)), k)
    ],
}


def neighbour_standard(shape: Shape, pos) -> bool:
    """Every cell once, and each entry below its right and lower neighbours'."""
    if len(pos) != shape.size or set(pos) != set(shape.cells):
        return False
    value = {cell: v for v, cell in enumerate(pos)}
    return all(
        value[(r, c)] < value[nb]
        for r, c in shape.cells
        for nb in ((r, c + 1), (r + 1, c))
        if nb in value
    )


def accepts(shape: Shape, pos) -> bool:
    try:
        Tableau(shape, pos)
    except ValueError as exc:
        assert str(exc) == f"filling {tuple(pos)} is not standard on {shape!r}"
        return False
    return True


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_every_arrangement_is_judged_by_the_neighbour_rule(family):
    assert SHAPES[family]
    for shape in SHAPES[family]:
        accepted = 0
        for pos in itertools.permutations(shape.cells):
            expected = neighbour_standard(shape, pos)
            assert accepts(shape, pos) == expected, (shape, pos)
            accepted += expected
        assert accepted == len(standard_tableaux(shape)), shape


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_malformed_fillings_are_rejected(family):
    for shape in SHAPES[family]:
        good = standard_tableaux(shape)[0].pos
        foreign = (0, 0)
        for pos in (
            (),
            good[:-1],
            good + good[-1:],
            good[:-1] + good[:1],
            good[:-1] + (foreign,),
            good + (foreign,),
            (foreign,) + good[1:],
        ):
            if pos == good:
                continue  # a one-cell shape duplicates its cell into itself
            assert not accepts(shape, pos), (shape, pos)
            assert not neighbour_standard(shape, pos)


def _posets() -> list[Poset]:
    rng = random.Random(20240611)
    found = []
    for k in range(64):
        if k % 2:
            found.append(Poset(*random_poset(rng, rng.randint(1, 7))))
        else:
            # bounded, with names shuffled against the construction order
            bounded = random_bounded_poset(rng, rng.randint(3, 7))
            names = list(bounded.elements)
            rng.shuffle(names)
            found.append(Poset(names, bounded.covers))
    return found


POSETS = _posets()


def test_covers_and_bounds_equal_brute_force():
    bounded = unbounded = 0
    for poset in POSETS:
        for a in poset.elements:
            assert poset.covers_of(a) == {b for x, b in poset.covers if x == a}
        minimal = [e for e in poset.elements if not any(b == e for _, b in poset.covers)]
        maximal = [e for e in poset.elements if not any(a == e for a, _ in poset.covers)]
        assert poset.minimum() == (minimal[0] if len(minimal) == 1 else None)
        assert poset.maximum() == (maximal[0] if len(maximal) == 1 else None)
        if poset.minimum() is not None and poset.maximum() is not None:
            bounded += 1
        else:
            unbounded += 1
    assert bounded and unbounded


def test_descents_equal_brute_force():
    seen = 0
    for poset in POSETS:
        extensions = linear_extensions(poset)[:40]
        for ideal in order_ideals(poset):
            for ext in extensions:
                seq = ext.seq
                expected = {
                    p for p, q in zip(seq, seq[1:])
                    if p in ideal and q not in ideal and (p, q) in poset.covers
                }
                assert descents(ext, ideal) == expected, (poset.covers, seq, ideal)
                seen += bool(expected)
    assert seen
