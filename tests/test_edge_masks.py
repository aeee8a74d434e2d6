"""The seeded ``verify poset-edges`` check reads each ideal as a down-set mask.

``posets._edge_check(poset, mask, cap)`` checks the edge identity on the
ideal whose elements are the set bits of ``mask`` and returns integers: the
verdict, the extensions, the descents summed over them and each orbit's
descent sum.  ``verify_edges`` turns its frozenset into that mask, refusing a
set that is not an order ideal of the poset, as ``poset_phi`` and
``poset_phi_inverse`` do, and wraps the check.  The check
must give what the per-extension ``descents`` sums give, and a failing pair
must be reported at its ``order_ideals`` position, counted over every
earlier poset, although the loop walks the masks in table order, and also
on a draw that repeats an earlier draw's structure and so is checked as the
poset built from that earlier draw.
"""

import json
import random

import pytest

from braidhooks import posets
from braidhooks.cli import EXIT_FAIL, EXIT_PASS, main
from braidhooks.homomesy import dihedral_orbits
from braidhooks.posets import (
    Poset,
    antichain_poset,
    descents,
    diamond_poset,
    linear_extensions,
    order_ideals,
    parse_ideal,
    poset_phi,
    poset_phi_inverse,
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
    check, draw, draws, checked = posets._edge_check, posets._random_layers, [], {}

    def counted_draw(rng, size):
        draws.append(draw(rng, size))
        return draws[-1]

    def failing_check(poset, mask, cap):
        checked[len(draws) - 1] = poset  # built from the draw, or the stored one of its structure
        result = check(poset, mask, cap)
        ideal = frozenset(poset.elements[i] for i in range(poset.size) if mask >> i & 1)
        if len(draws) - 1 == which and ideal in failing:
            return (False, *result[1:])
        return result

    monkeypatch.setattr(posets, "_random_layers", counted_draw)
    monkeypatch.setattr(posets, "_edge_check", failing_check)
    argv = ["verify", "poset-edges", "--count", str(COUNT), "--seed", str(SEED)]
    assert main(argv) == EXIT_FAIL
    assert json.loads(capsys.readouterr().out) == {
        "theorem": "poset-edges", "checked": expected, "pass": False}
    assert len(draws) == which + 1
    structures = [(p.elements, p.covers) for p in drawn]
    earlier = [checked[i] for i in range(which)]
    assert any(checked[which] is p for p in earlier) == (structures[which] in structures[:which])


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
    (diamond_poset(), {"top"}, "{'top'} is not downward closed (missing 'bot')"),
    (diamond_poset(), {"zzz"}, "unknown elements ['zzz']"),
    (antichain_poset(3), {5}, "unknown elements [5]"),  # before the bounds check
])
def test_verify_edges_refuses_a_set_that_is_not_an_ideal(poset, ideal, message):
    ext = linear_extensions(poset)[0]
    for refuse in (lambda s: verify_edges(poset, s), lambda s: poset_phi(ext.element(1), ext, s),
                   lambda s: poset_phi_inverse(ext, s)):
        with pytest.raises(ValueError) as info:
            refuse(frozenset(ideal))
        assert message in str(info.value)
    text = ",".join(map(str, sorted(ideal, key=str)))
    if all(isinstance(e, str) for e in ideal):  # the same words from ``parse_ideal``
        with pytest.raises(ValueError) as parsed:
            parse_ideal(poset, text)
        assert message in str(parsed.value)


# Five extensions in two dihedral orbits, of sizes 3 and 2.
SPLIT = "bot < 2\nbot < 3\n2 < 0\n2 < 1\n3 < 1\n0 < top\n1 < top\n"


def plant_swapped_windows(poset):
    """Settle the poset's windows, then swap its two orbits' counts: every
    proper ideal keeps its descent total but not each orbit's sum."""
    verify_edges(poset, frozenset({"bot"}))
    sizes, counts = poset._windows
    assert sorted(sizes) == [2, 3]
    counts.reverse()
    return poset


def test_a_per_orbit_fault_fails_although_the_totals_agree():
    poset = plant_swapped_windows(posets.poset_from_lines(SPLIT))
    sizes = poset._windows[0]
    for ideal in proper_ideals(poset):
        report = verify_edges(poset, ideal)
        sums = [o["average"] * o["size"] for o in report["per_orbit"]]
        assert report["lhs"] == report["rhs"] == 5, ideal
        assert sums == sizes[::-1], ideal
        assert not report["ok"], ideal


def test_the_command_exits_one_on_a_per_orbit_fault(tmp_path, monkeypatch):
    poset_file = tmp_path / "F.txt"
    poset_file.write_text(SPLIT)
    args = ["verify", "poset-edges", "--poset", str(poset_file), "--ideal", "bot,2"]
    assert main(args) == EXIT_PASS
    parse = posets.poset_from_lines
    monkeypatch.setattr(posets, "poset_from_lines",
                        lambda text: plant_swapped_windows(parse(text)))
    assert main(args) == EXIT_FAIL
