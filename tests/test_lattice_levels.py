"""Refusals that hold before memory is committed.

``posets._lattice`` builds the down-set table level by level.  For a walk,
a level's paths (each parent's paths times its addable count) start
different extensions, so more paths than the cap refuse the build before
that level exists.  For ``order_ideals`` the cap bounds the down-sets
held, and a down-set with a addable elements shows 2**a - 1 more above it.
Heaps size their per-column lists by the largest letter, not the rank.
"""

import io
from contextlib import redirect_stdout

import pytest

from braidhooks import posets
from braidhooks.cli import EXIT_PASS, main
from braidhooks.errors import ExplosionGuardError
from braidhooks.heaps import build_order_extension, nu
from braidhooks.posets import (
    Poset,
    antichain_poset,
    chain_poset,
    diamond_poset,
    linear_extensions,
    order_ideals,
)
from braidhooks.tableaux import Shape
from braidhooks.words import make_word

from test_lattice import SHAPES, peak_while, seeded_posets


def two_chains() -> Poset:
    return Poset(range(20), [(i, i + 1) for i in range(19) if i != 9])


ORDERS = [Poset([], []), chain_poset(5), antichain_poset(5), diamond_poset(), two_chains()]
ORDERS += seeded_posets()


@pytest.mark.parametrize("enumerate_, what", [
    (linear_extensions, "linear extensions"),
    (order_ideals, "order ideals"),
])
def test_a_wide_order_is_refused_before_its_table_is_built(enumerate_, what):
    raised = []

    def run():
        with pytest.raises(ExplosionGuardError) as info:
            enumerate_(antichain_poset(16), cap=10**4)
        raised.append(info.value)

    assert peak_while(run) < 1 << 20
    assert (raised[0].cap, raised[0].what) == (10**4, what)


def built_down_sets(monkeypatch) -> list:
    """Each down-set after the empty one gets one sorted addable list."""
    made = []

    def counted(items):
        made.append(None)
        return sorted(items)

    monkeypatch.setattr(posets, "sorted", counted, raising=False)
    return made


def test_the_path_check_stops_before_the_level_it_bounds(monkeypatch):
    # 16 * 15 * 14 = 3,360 paths reach size 3, and 43,680 reach size 4
    made = built_down_sets(monkeypatch)
    with pytest.raises(ExplosionGuardError):
        posets._lattice(antichain_poset(16)._below, 10**4, "test")
    assert len(made) == 16 + 120 + 560


def test_ideals_stop_once_more_than_the_cap_are_held(monkeypatch):
    # two chains of ten: 121 down-sets, none with more than two addable
    # elements, so only the count of those held can stop the build
    made = built_down_sets(monkeypatch)
    with pytest.raises(ExplosionGuardError, match="order ideals"):
        order_ideals(two_chains(), cap=97)
    assert 1 + len(made) == 97


@pytest.mark.parametrize("order", SHAPES + ORDERS,
                         ids=[repr(s) for s in SHAPES] + [f"poset{i}" for i in range(len(ORDERS))])
def test_exact_caps_pass_and_one_less_is_refused(order):
    count = len(posets._lattice(order._below, 10**9, "test")[0])
    extensions = posets._lattice(order._below, 10**9, "test")[1][0]
    assert posets._lattice(order._below, extensions, "test")[1][0] == extensions
    assert len(posets._lattice(order._below, count, "test", True)[0]) == count
    with pytest.raises(ExplosionGuardError):
        posets._lattice(order._below, extensions - 1, "test")
    with pytest.raises(ExplosionGuardError):
        posets._lattice(order._below, count - 1, "test", True)


HUGE = 10**7


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
def test_a_large_rank_costs_nothing(command):
    def run(rank):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([command, "--class-of-word", "1,2,1", "--rank", str(rank)]) == EXIT_PASS
        return out.getvalue()

    expected = run(4)
    printed = []
    assert peak_while(lambda: printed.append(run(HUGE))) < 1 << 20
    assert printed == [expected]


def test_nu_and_the_heap_cost_nothing_at_a_large_rank():
    shape = Shape.right((2, 1))
    expected = nu(make_word((1, 2, 1), 3), shape)
    found = []
    assert peak_while(lambda: found.append(nu(make_word((1, 2, 1), HUGE), shape))) < 1 << 20
    assert found == [expected]
    word = make_word((2, 1, 3, 2), HUGE)
    assert peak_while(lambda: build_order_extension(word)) < 1 << 20
