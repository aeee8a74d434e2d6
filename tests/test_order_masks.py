"""Standardness and poset queries read off the lower-cover masks.

``Tableau(shape, pos)`` must accept a filling exactly when a rule written
here from the next cell along each row and each column does, and ``covers_of``,
``minimum``, ``maximum`` and ``descents`` must equal brute force over the
reduced cover pairs ``poset.covers``.  ``less``, ``leq`` and the toggle's
commute test read the strict down-set masks, and ``transitive_reduction``
must equal a brute-force closure and reduction of the pairs it is given.
"""

import itertools
import random
import tracemalloc

import pytest

from braidhooks.posets import (
    Poset,
    chain_poset,
    descents,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
    transitive_reduction,
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
    """Every cell once, and each entry below the entries of the next cells
    along its row and its column, across any gap."""
    if len(pos) != shape.size or set(pos) != set(shape.cells):
        return False
    value = {cell: v for v, cell in enumerate(pos)}
    rows = [sorted(cell for cell in value if cell[0] == r) for r, _ in value]
    columns = [sorted(cell for cell in value if cell[1] == c) for _, c in value]
    return all(value[a] < value[b] for line in rows + columns for a, b in zip(line, line[1:]))


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


def brute_order(n: int, pairs) -> tuple[set, set] | None:
    """The strict order pairs generate on 0..n-1 and its covers, by repeated
    composition; ``None`` when some element ends up below itself."""
    less = set(pairs)
    while True:
        more = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not more:
            break
        less |= more
    if any(a == b for a, b in less):
        return None
    covers = {
        (a, b) for a, b in less
        if not any((a, c) in less and (c, b) in less for c in range(n))
    }
    return less, covers


def test_comparability_and_toggle_equal_brute_force():
    swapped = kept = 0
    for poset in POSETS:
        names = poset.elements
        index = {e: i for i, e in enumerate(names)}
        less, _ = brute_order(len(names), {(index[a], index[b]) for a, b in poset.covers})
        for a, b in itertools.product(names, repeat=2):
            below = (index[a], index[b]) in less
            assert poset.less(a, b) is below, (poset.covers, a, b)
            assert poset.leq(a, b) is (below or a == b), (poset.covers, a, b)
        for ext in linear_extensions(poset)[:40]:
            for i in range(1, ext.size):
                a, b = index[ext.seq[i - 1]], index[ext.seq[i]]
                commute = (a, b) not in less and (b, a) not in less
                seq = list(ext.seq)
                if commute:
                    seq[i - 1], seq[i] = seq[i], seq[i - 1]
                assert ext.taus((i,)).seq == tuple(seq), (poset.covers, ext.seq, i)
                swapped += commute
                kept += not commute
    assert swapped and kept


def _random_relations(rng: random.Random) -> tuple[int, list]:
    """Pairs on 0..n-1: half acyclic under a shuffled order, half arbitrary
    (cycles and self-loops included)."""
    n = rng.randint(0, 8)
    density = rng.random() * 0.6
    if rng.random() < 0.5:
        rank = list(range(n))
        rng.shuffle(rank)
        return n, [(a, b) for a in range(n) for b in range(n)
                   if rank[a] < rank[b] and rng.random() < density]
    return n, [(a, b) for a in range(n) for b in range(n)
               if rng.random() < (density / 4 if a == b else density / 2)]


def test_transitive_reduction_equals_brute_force():
    rng = random.Random(8)
    orders = cycles = loops = 0
    for _ in range(2000):
        n, pairs = _random_relations(rng)
        given = [0] * n
        for a, b in pairs:
            given[b] |= 1 << a
        expected = brute_order(n, pairs)
        if expected is None:
            with pytest.raises(ValueError, match="^cover relation has a cycle$"):
                transitive_reduction(given)
            if any(a == b for a, b in pairs):
                loops += 1
            else:
                cycles += 1
            continue
        cover, down = transitive_reduction(given)
        less, covers = expected
        assert {(j, i) for i in range(n) for j in range(n) if cover[i] >> j & 1} == covers
        assert {(j, i) for i in range(n) for j in range(n) if down[i] >> j & 1} == less
        orders += 1
    assert orders > 1000 and cycles > 50 and loops > 150, (orders, cycles, loops)


def test_cycles_and_self_loops_rejected_by_poset():
    for covers in ([("a", "a")], [("a", "b"), ("b", "a")], [("a", "b"), ("b", "c"), ("c", "a")]):
        with pytest.raises(ValueError, match="^cover relation has a cycle$"):
            Poset(["a", "b", "c"], covers)


def test_long_chain_builds_in_little_memory():
    # strict down-sets as masks: 3,000 ints of at most 3,000 bits (about 1 MB);
    # as sets of indices they held 4.5 million entries (over 200 MB)
    tracemalloc.start()
    try:
        poset = chain_poset(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak
    assert poset.less(0, 2999) and not poset.less(2999, 0)
    assert poset.covers == frozenset((i, i + 1) for i in range(2999))
