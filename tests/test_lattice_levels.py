"""Refusals that hold before memory is committed.

``posets._lattice`` builds a table depth first.  For a walk, every state
lies on a chain from the root, so a partial sum of chains above the cap
refuses the build while it holds only the states counted so far.  For
``order_ideals`` the cap bounds the down-sets held, and a down-set with a
addable elements shows 2**a - 1 more above it.
Heaps key their column heights by letter, so their memory follows the
word's length, not its rank or its largest letter.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from braidhooks import heaps, posets
from braidhooks.cli import EXIT_CAP, EXIT_PASS, main
from braidhooks.errors import ExplosionGuardError
from braidhooks.heaps import build_order_extension, heap_poset, nu
from braidhooks.posets import (
    Poset,
    antichain_poset,
    chain_poset,
    diamond_poset,
    linear_extensions,
    order_ideals,
)
from braidhooks.tableaux import Shape
from braidhooks.words import Word, make_word

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


def test_a_wide_poset_file_exits_on_the_default_cap_in_little_memory(monkeypatch, tmp_path):
    # bot < m0..m27 < top has 28! linear extensions and 2**28 + 2 down-sets;
    # the build refuses inside the first down-set with 12 middle elements left
    monkeypatch.delenv("BRAIDHOOKS_CAP", raising=False)
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"bot < m{i}\nm{i} < top\n" for i in range(28)))
    err = io.StringIO()
    codes = []

    def run():
        with redirect_stderr(err):
            codes.append(main(["verify", "poset-edges", "--poset", str(path), "--ideal", "bot"]))

    assert peak_while(run) < 5 * 2**20
    assert codes == [EXIT_CAP]
    assert err.getvalue() == (
        "error: enumeration of linear extensions exceeded the state cap of 100000000\n")


def built_down_sets(monkeypatch) -> list:
    """Each down-set after the empty one gets one sorted addable list."""
    made = []

    def counted(items):
        made.append(None)
        return sorted(items)

    monkeypatch.setattr(posets, "sorted", counted, raising=False)
    return made


def test_a_partial_sum_stops_the_build_inside_the_first_state_it_bounds(monkeypatch):
    # a down-set with j elements left has j! extensions, and 7! <= 10^4 < 8!.
    # The build goes down to {0..7}, counts its first child {0..8} (5,040,
    # its 2**7 down-sets), then its second {0..7, 9} (2**6 new ones): 10,080
    made = built_down_sets(monkeypatch)
    with pytest.raises(ExplosionGuardError):
        posets._downset_table(antichain_poset(16)._below, 10**4, "test")
    assert 1 + len(made) == 9 + 2**7 + 2**6


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
    table = posets._downset_table
    count = len(table(order._below, 10**9, "test")[0])
    extensions = table(order._below, 10**9, "test")[1][-1]
    assert table(order._below, extensions, "test")[1][-1] == extensions
    assert len(table(order._below, count, "test", True)[0]) == count
    with pytest.raises(ExplosionGuardError):
        table(order._below, extensions - 1, "test")
    with pytest.raises(ExplosionGuardError):
        table(order._below, count - 1, "test", True)


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


def test_a_large_letter_costs_nothing():
    # one piece in column 10**8: a list of column heights would hold 10**8 of them
    letter = 10**8
    assert peak_while(lambda: heaps._stacks((letter,))) < 1 << 20
    found = []
    assert peak_while(lambda: found.append(heap_poset(Word((letter,), letter + 1)))) < 1 << 20
    assert found[0].elements == ((letter, 1),) and not found[0].covers
