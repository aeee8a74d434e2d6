"""The table behind every enumeration: counts first, then the walk.

``posets._lattice`` lists the states of a graded order in post-order with
the number of maximal chains from each, so the root's count (the last) must
equal the length of every enumeration, and a cap below it must be refused
before any object is made.  A ``Poset`` builds its down-set table once, and
``order_ideals`` reads its down-sets.
"""

import io
import random
import tracemalloc
from contextlib import redirect_stderr

import pytest

from braidhooks import posets, tableaux, words
from braidhooks.cli import EXIT_CAP, main
from braidhooks.errors import ExplosionGuardError
from braidhooks.heaps import heap_poset
from braidhooks.posets import (
    Poset,
    antichain_poset,
    chain_poset,
    diamond_poset,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
)
from braidhooks.tableaux import Shape, standard_tableaux
from braidhooks.words import commutation_class, staircase_word, trapezoid_word

from helpers import partitions, skew_test_shapes, strict_partitions

MAX_CELLS = 9

SHAPES = (
    [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)]
    + [Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)]
    + skew_test_shapes(MAX_CELLS + 1)
)


def seeded_posets(count=60):
    """The posets of ``test_extension_reuse``."""
    rng = random.Random(97)
    return [random_bounded_poset(rng, rng.randint(3, 7)) for _ in range(count)]


def count(below) -> int:
    return posets._downset_table(below, 10**9, "test")[1][-1]


def test_counts_equal_the_fillings():
    assert all(shape.size <= MAX_CELLS for shape in SHAPES)
    for shape in SHAPES:
        assert count(shape._below) == len(standard_tableaux(shape)), shape.cells


def test_counts_equal_the_extensions():
    for poset in seeded_posets():
        assert count(poset._below) == len(linear_extensions(poset))


def test_counts_equal_the_commutation_classes():
    for word in [staircase_word(n) for n in range(3, 8)] + [trapezoid_word(n) for n in (1, 2, 3)]:
        expected = len(commutation_class(word))
        assert count(words._heap_order(word.letters)[1]) == expected
        assert count(heap_poset(word)._below) == expected


def brute_force_ideals(poset: Poset) -> list[frozenset]:
    down, names = poset._down, poset.elements
    closed = [m for m in range(1 << poset.size)
              if all(down[i] & ~m == 0 for i in posets._bits(m))]
    ideals = [frozenset(names[i] for i in posets._bits(m)) for m in closed]
    return sorted(ideals, key=lambda s: (len(s), sorted(map(str, s))))


def test_order_ideals_are_every_closed_subset_in_key_order():
    fixed = [Poset([], []), chain_poset(4), antichain_poset(4), diamond_poset()]
    for poset in fixed + seeded_posets():
        assert order_ideals(poset) == brute_force_ideals(poset)


def test_one_table_per_poset(monkeypatch):
    calls = []
    build = posets._lattice

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(posets, "_lattice", counted)
    poset = seeded_posets(1)[0]
    ideals = order_ideals(poset)
    extensions = linear_extensions(poset)
    assert len(calls) == 1
    masks, counts, _, _ = poset._table
    assert (len(masks), counts[-1]) == (len(ideals), len(extensions))


def test_the_table_holds_no_objects():
    poset = diamond_poset()
    order_ideals(poset)
    masks, counts, addable, up = poset._table
    assert all(type(x) is int for x in masks + counts)
    assert all(type(x) is int for row in addable + up for x in row)


def test_too_many_down_sets_stop_the_build():
    # the down-set of 17 elements has 3! = 6 extensions above it, more than 5
    with pytest.raises(ExplosionGuardError) as raised:
        posets._downset_table(antichain_poset(20)._below, 5, "things")
    assert (raised.value.cap, raised.value.what) == (5, "things")


SHARED = Shape.right((4, 3, 2, 1))  # its table, built at the default cap, is kept


@pytest.mark.parametrize("what, enumerate_, module", [
    ("fillings", lambda cap: standard_tableaux(Shape.right((4, 3, 2, 1)), cap), tableaux),
    ("fillings", lambda cap: standard_tableaux(SHARED, cap), tableaux),
    ("words", lambda cap: commutation_class(staircase_word(5), cap), words),
    ("words", lambda cap: words.all_reduced_words(words.Permutation.longest(4), cap), words),
    ("linear extensions", lambda cap: linear_extensions(antichain_poset(4), cap), posets),
])
def test_each_caller_refuses_before_making_an_object(monkeypatch, what, enumerate_, module):
    assert module is posets or not hasattr(module, "_wrap")  # no wrap of its own
    total = len(enumerate_(None))
    made = []
    wrap = posets._wrap

    def counting(chains, *slots):
        made.extend(chains)  # the objects ``_wrap`` makes, one per chain
        return wrap(chains, *slots)

    monkeypatch.setattr(posets, "_wrap", counting)  # the one wrap, inside ``_extensions``
    with pytest.raises(ExplosionGuardError) as raised:
        enumerate_(total - 1)
    assert (raised.value.cap, raised.value.what) == (total - 1, what)
    assert made == []
    assert len(enumerate_(total)) == total == len(made)


def peak_while(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cap_is_refused_before_memory_is_committed():
    err = io.StringIO()

    def cli():
        with redirect_stderr(err):
            assert main(["--cap", "33591", "enumerate", "--shape", "right:6,5,4,3,2,1"]) == EXIT_CAP

    assert peak_while(cli) < 1 << 20
    assert err.getvalue() == "error: enumeration of fillings exceeded the state cap of 33591\n"

    for run, cap, what in [
        (lambda: commutation_class(staircase_word(7), cap=33591), 33591, "words"),
        (lambda: linear_extensions(antichain_poset(8), cap=40319), 40319, "linear extensions"),
    ]:
        raised = []

        def guarded():
            with pytest.raises(ExplosionGuardError) as info:
                run()
            raised.append(info.value)

        assert peak_while(guarded) < 1 << 20
        assert (raised[0].cap, raised[0].what) == (cap, what)
