"""The seeded ``verify poset-edges`` check reads each ideal as a down-set mask.

``posets._edge_check(poset, mask, cap)`` checks the edge identity on the
ideal whose elements are the set bits of ``mask`` and returns integers: the
verdict, the extensions, the descents summed over them and each orbit's
descent sum.  ``verify_edges`` turns its frozenset into that mask, refusing a
set that is not an order ideal of the poset, and wraps the check.  The check
must give what the per-extension ``descents`` sums give, and a failing pair
must be reported at its ``order_ideals`` position, counted over every
earlier poset, although the loop walks the masks in table order, and also
on a draw that repeats an earlier draw's structure and so takes its table
and windows.
"""

import json
import random

import pytest

from braidhooks import posets
from braidhooks.cli import EXIT_FAIL, main
from braidhooks.homomesy import dihedral_orbits
from braidhooks.posets import (
    Poset,
    antichain_poset,
    descents,
    diamond_poset,
    linear_extensions,
    order_ideals,
    parse_ideal,
    random_bounded_poset,
    verify_edges,
)


def mask_of(poset, ideal):
    return sum(1 << poset.elements.index(e) for e in ideal)


def proper_ideals(poset):
    return [i for i in order_ideals(poset) if i and len(i) < poset.size]


def test_mask_check_agrees_with_verify_edges_and_the_descents():
    rng = random.Random(34)
    pairs = 0
    for _ in range(300):
        poset = random_bounded_poset(rng, rng.randint(3, 7))
        twin = Poset(poset.elements, poset.covers)  # its own walk and windows, through frozensets
        orbits = dihedral_orbits(linear_extensions(twin), "dihedral")
        ideals = proper_ideals(twin)
        full = (1 << poset.size) - 1
        masks = [m for m in posets._ideal_masks(poset, 10**6) if m and m != full]
        assert sorted(masks) == sorted(mask_of(poset, ideal) for ideal in ideals)
        for ideal in ideals:
            ok, lhs, rhs, sums = posets._edge_check(poset, mask_of(poset, ideal), None)
            report = verify_edges(twin, ideal)
            assert (ok, lhs, rhs) == (report["ok"], report["lhs"], report["rhs"])
            assert ok and lhs == rhs == len(linear_extensions(twin))
            assert sums == [o["average"] * o["size"] for o in report["per_orbit"]]
            assert sums == [sum(len(descents(x, ideal)) for x in o.members) for o in orbits]
            pairs += 1
    assert pairs > 1000


SEED, COUNT = 5, 12


def drawn_posets():
    """The posets ``verify poset-edges --count COUNT --seed SEED`` draws."""
    rng = random.Random(SEED)
    return [random_bounded_poset(rng, rng.randint(3, 7)) for _ in range(COUNT)]


@pytest.mark.parametrize("which, positions", [
    (0, [0]),
    (8, [-1]),
    (8, [-1, 5]),
    (10, [12, 3]),
    (11, [-1, 0, 7]),  # draw 11 repeats draw 10's structure
    (6, [-1, 1]),  # draw 6 repeats draw 2's
])
def test_a_failing_pair_keeps_its_order_ideals_position(which, positions, monkeypatch, capsys):
    drawn = drawn_posets()
    chosen = proper_ideals(drawn[which])
    failing = {chosen[p] for p in positions}
    # the earlier posets' proper ideals, then the first failure in ``order_ideals`` order
    expected = sum(len(proper_ideals(p)) for p in drawn[:which])
    expected += min(chosen.index(ideal) for ideal in failing) + 1
    check, seen, reused = posets._edge_check, [], []

    def failing_check(poset, mask, cap):
        if not seen or seen[-1] is not poset:
            seen.append(poset)
            reused.append(poset._windows is not None)  # settled by an earlier draw
        result = check(poset, mask, cap)
        ideal = frozenset(poset.elements[i] for i in range(poset.size) if mask >> i & 1)
        if len(seen) - 1 == which and ideal in failing:
            return (False, *result[1:])
        return result

    monkeypatch.setattr(posets, "_edge_check", failing_check)
    argv = ["verify", "poset-edges", "--count", str(COUNT), "--seed", str(SEED)]
    assert main(argv) == EXIT_FAIL
    assert json.loads(capsys.readouterr().out) == {
        "theorem": "poset-edges", "checked": expected, "pass": False}
    assert len(seen) == which + 1
    structures = [(p.elements, p.covers) for p in drawn]
    assert reused[which] == (structures[which] in structures[:which])


def test_the_table_order_is_not_the_reported_order():
    # the position is worked out, not read off the loop: the masks come in another order
    poset = drawn_posets()[8]
    full = (1 << poset.size) - 1
    table = [m for m in posets._ideal_masks(poset, 10**6) if m and m != full]
    assert table != [mask_of(poset, ideal) for ideal in proper_ideals(poset)]


@pytest.mark.parametrize("poset, ideal, message", [
    (diamond_poset(), {"left"}, "{'left'} is not downward closed (missing 'bot')"),
    (diamond_poset(), {"bot", "right", "top"}, "is not downward closed (missing 'left')"),
    (diamond_poset(), {"bot", "left", "right", "zzz"}, "unknown elements ['zzz']"),
    (antichain_poset(3), {5}, "unknown elements [5]"),  # before the bounds check
])
def test_verify_edges_refuses_a_set_that_is_not_an_ideal(poset, ideal, message):
    with pytest.raises(ValueError) as info:
        verify_edges(poset, frozenset(ideal))
    assert message in str(info.value)
    text = ",".join(map(str, sorted(ideal, key=str)))
    if all(isinstance(e, str) for e in ideal):  # the same words from ``parse_ideal``
        with pytest.raises(ValueError) as parsed:
            parse_ideal(poset, text)
        assert message in str(parsed.value)
