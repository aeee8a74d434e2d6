"""Orbit statistics summed as window counts equal the per-object references.

``tableau_statistic("braid-hooks")`` and ``word_statistic("braid-moves")``
carry ``total(states)``, which counts the statistic's windows with the one
window counter, ``posets._window_counts``, over the windows
``tableaux._hook_windows`` and ``words._braid_windows`` list.
Every total here must equal the sum of ``len(braid_hooks(t))`` or of
``braid_sites(w)`` over the same states, per orbit in every group mode.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from helpers import partitions, skew_test_shapes, strict_partitions
from test_braid_scan import CLASSES, exact_counts

from braidhooks.cli import main
from braidhooks.homomesy import (
    MODES,
    dihedral_orbits,
    find_gyration_anomaly,
    orbit_average,
    rw_class,
    tableau_statistic,
    word_statistic,
)
from braidhooks.posets import _window_sum
from braidhooks.tableaux import (
    Shape,
    Tableau,
    _hook_windows,
    braid_hooks,
    random_standard_tableau,
    standard_tableaux,
)
from braidhooks.words import Word, braid_sites, make_word

MAX_CELLS = 9
SHAPES = {
    "right": [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)],
    "half-right": [
        Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)
    ],
    "skew": skew_test_shapes(MAX_CELLS + 1),
    "right:6,5,4,3,2,1": [Shape.right((6, 5, 4, 3, 2, 1))],
}


def check_orbit_totals(carrier, statistic, reference):
    """The whole carrier's ``total``, read from an iterator in chunks, and in
    every mode each orbit's ``total`` and average match ``reference``."""
    expected = {x: reference(x) for x in carrier}
    assert statistic.total(iter(carrier)) == sum(expected.values())
    for mode in MODES:
        for orbit in dihedral_orbits(carrier, mode):
            want = sum(expected[x] for x in orbit.members)
            assert statistic.total(orbit.members) == want, (mode, orbit.representative)
            assert orbit_average(orbit, statistic) == Fraction(want, orbit.size)


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_hook_totals_per_orbit(family):
    statistic = tableau_statistic("braid-hooks")
    for shape in SHAPES[family]:
        fillings = standard_tableaux(shape)
        check_orbit_totals(fillings, statistic, lambda t: len(braid_hooks(t)))
        for t in fillings[:50]:
            assert statistic(t) == len(braid_hooks(t)), t.pos


@pytest.mark.parametrize("outer", [(2, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1)], ids=repr)
def test_hook_total_is_exact_on_every_order_of_the_cells(outer):
    """The count is exact on any sequence of distinct cells, not only on
    standard fillings: on those no window can span two fillings, and a cell
    (r+1, c) between (r, c) and (r+1, c+1) would need the value held at
    (r, c+1), so only the other orders show that the separator is no label
    and that a window needs (r+1, c) outside the shape."""
    shape = Shape.right(outer)
    orders = [Tableau(shape, pos, _checked=True)
              for pos in itertools.permutations(shape.cells)]
    assert _window_sum(orders, _hook_windows) == sum(len(braid_hooks(t)) for t in orders)


def test_hook_total_past_255_cells():
    outer = tuple(range(23, 0, -1))  # 276 cells: ids past 255
    shape = Shape.right(outer)
    rng = random.Random(repr(outer))
    draws = [random_standard_tableau(shape, rng) for _ in range(20)]
    assert shape.size == 276
    assert _window_sum(draws, _hook_windows) == sum(len(braid_hooks(t)) for t in draws)


def test_gyration_anomaly_sums_its_orbit():
    shape = Shape.right((7, 6, 5, 4, 3, 2, 1))
    hit = find_gyration_anomaly(shape, max_seeds=10)
    assert (hit["seed"], hit["orbit_size"], hit["average"]) == (1, 28, Fraction(15, 14))


WORD_CLASSES = {
    **CLASSES,
    **{f"class of right:{','.join(map(str, outer))}":
       (lambda outer=outer: rw_class(Shape.right(outer)))
       for n in range(2, 9) for outer in partitions(n)},
}


@pytest.mark.parametrize("build", WORD_CLASSES.values(), ids=WORD_CLASSES.keys())
def test_braid_move_totals_per_orbit(build):
    check_orbit_totals(build(), word_statistic("braid-moves"), lambda w: sum(braid_sites(w)))


@pytest.mark.parametrize("ws, exact", [
    ([make_word([1, 2, 1, 2], 3), make_word([1, 2, 1, 3, 2, 3], 4)], [(1, 2, 1), (2, 1, 2)]),
    ([Word((16, 17, 16, 1, 2, 1), 18), Word((2, 1, 2), 3)], []),
], ids=["overlap", "rank 18"])
def test_braid_move_total_takes_the_exact_count_on_overlaps(ws, exact, monkeypatch):
    counted = exact_counts(monkeypatch)
    statistic = word_statistic("braid-moves")
    assert statistic.total(ws) == sum(sum(braid_sites(w)) for w in ws)
    assert counted == exact  # 1 2 1 2 holds the stretch of 1 2 1 and of 2 1 2
    assert [statistic(w) for w in ws] == [sum(braid_sites(w)) for w in ws]


# sha256 of ``orbits --shape right:6,5,4,3,2,1 --group MODE``'s stdout,
# recorded before the orbit sums became window counts.
STAIRCASE_ORBITS = {
    "dihedral": "626864c487be120727d0ee36acc52a6fa2188859ee139dc84b7093ab64c16a69",
    "gyration": "9cfc559e054f1b829039f9842317674ac910ae3ad48297aeb30e5e5dc341a4ff",
    "order-two-odd": "32345aef4d7aff282b38287fd956f7972873327fa916b75c28cca41e9b861f1f",
    "order-two-even": "8c9354229a89196851bdbad4935823d462d2e7a18a0146aa4ee6e13191088752",
}


@pytest.mark.parametrize("mode", MODES)
def test_staircase_orbits_output_is_unchanged(mode, capsys):
    main(["orbits", "--shape", "right:6,5,4,3,2,1", "--group", mode])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STAIRCASE_ORBITS[mode]
