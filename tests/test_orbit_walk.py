"""The orbit walk: paths and cycles under two involutions, one generator's cycles.

Under tau_odd and tau_even every orbit is a path (two of its states are
fixed by one generator each) or a cycle whose edges alternate.  The walk
must meet every state of an orbit exactly once from any start: on a path,
it turns back at the first end and walks the other way from the start.
The sampled search closes each drawn orbit with ``dihedral_orbits``; its
reference here is the walk, rebuild, hook total and least key it once kept
of its own.
"""

import random
import re
from fractions import Fraction

import pytest

from braidhooks.homomesy import (
    MODES, _generators, _tau_words, _walk, dihedral_orbits, find_gyration_anomaly, tau_even,
    tau_odd,
)
from braidhooks.posets import _window_sum, chain_poset, linear_extensions
from braidhooks.tableaux import (Shape, Tableau, _hook_windows, random_standard_tableau,
                                 standard_tableaux)
from braidhooks.words import Word

from test_keys import GENERATORS


def closure(start, mode: str) -> set:
    """The orbit of ``start`` by search over the public generators."""
    members, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        for g in GENERATORS[mode]:
            y = g(x)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def walk(x, mode: str) -> list[tuple]:
    return _walk(x.ids, _tau_words(_generators(mode), x.size), x._toggle)


def is_path(orbit) -> bool:
    return any(tau_odd(t) == t or tau_even(t) == t for t in orbit.members)


def assert_walks_meet_each_state_once(orbit, mode: str) -> None:
    states = {t.ids for t in orbit.members}
    for t in orbit.members:
        found = walk(t, mode)
        assert found[0] == t.ids
        assert len(found) == len(states) and set(found) == states, (mode, t.pos)


def test_right_4321_dihedral_orbits_are_paths():
    orbits = dihedral_orbits(standard_tableaux(Shape.right((4, 3, 2, 1))))
    assert orbits and all(is_path(orbit) for orbit in orbits)
    for orbit in orbits:
        # from every state, the ends included, the walk goes both ways
        assert_walks_meet_each_state_once(orbit, "dihedral")


def test_right_54321_has_cycle_orbits():
    orbits = dihedral_orbits(standard_tableaux(Shape.right((5, 4, 3, 2, 1))))
    cycles = [orbit for orbit in orbits if not is_path(orbit)]
    assert cycles
    for orbit in cycles:
        assert_walks_meet_each_state_once(orbit, "dihedral")


@pytest.mark.parametrize("mode", MODES)
def test_walk_matches_the_search_closure(mode):
    for t in standard_tableaux(Shape.right((5, 4, 3, 2, 1)))[::7]:
        assert {t.ids for t in closure(t, mode)} == set(walk(t, mode))
        assert len(set(walk(t, mode))) == len(walk(t, mode))


@pytest.mark.parametrize("mode", MODES)
def test_chain_has_one_orbit_of_one(mode):
    extensions = linear_extensions(chain_poset(5))
    (orbit,) = dihedral_orbits(extensions, mode)
    assert orbit.members == (extensions[0],)


@pytest.mark.parametrize("mode", ["order-two-odd", "order-two-even"])
def test_order_two_orbits_have_one_or_two_states(mode):
    orbits = dihedral_orbits(standard_tableaux(Shape.right((4, 3, 2, 1))), mode)
    assert {orbit.size for orbit in orbits} == ({2} if mode == "order-two-odd" else {1, 2})
    for orbit in orbits:
        assert_walks_meet_each_state_once(orbit, mode)


@pytest.mark.parametrize("mode", MODES)
def test_walk_leaves_a_pool_that_is_not_closed(mode):
    carrier = standard_tableaux(Shape.right((5, 4, 3, 2, 1)))
    pool = carrier[::5]
    own = {id(t) for t in pool}
    orbits = dihedral_orbits(pool, mode)
    assert any(id(t) not in own for orbit in orbits for t in orbit.members)
    for orbit in orbits:
        assert set(orbit.members) == closure(orbit.members[0], mode)
        assert list(orbit.members) == sorted(orbit.members, key=lambda t: t.key())
        # a state of the pool is the pool's own object
        assert all(id(t) in own for t in orbit.members if t in set(pool))
    assert sum(orbit.size for orbit in orbits) == len({t for o in orbits for t in o.members})
    assert set(pool) <= {t for orbit in orbits for t in orbit.members}


def test_a_state_given_twice_is_one_state():
    carrier = standard_tableaux(Shape.right((3, 2, 1)))
    twice = dihedral_orbits(carrier + carrier[::-1])
    assert [orbit.members for orbit in twice] == [
        orbit.members for orbit in dihedral_orbits(carrier)
    ]


@pytest.mark.parametrize("carrier, mismatch", [
    (standard_tableaux(Shape.right((3, 2, 1))) + standard_tableaux(Shape.right((4, 2))),
     "more than one poset"),
    ([Word((1, 2, 1), 3), Word((1, 3, 1, 2), 5)], "label lengths: [3, 4]"),
    ([Word((1, 2, 1), 3), Word((1, 2, 1), 4)], "more than one rank"),
    ([*standard_tableaux(Shape.right((2, 1))), *linear_extensions(Shape.right((2, 1)))],
     "state types: LinearExtension, Tableau"),
], ids=["two-shapes", "two-lengths", "two-ranks", "two-types"])
def test_a_mixed_carrier_is_refused(carrier, mismatch):
    # the walk toggles every state as the first; a mixed carrier's orbits would mix
    with pytest.raises(ValueError, match=re.escape(mismatch)):
        dihedral_orbits(carrier)


def test_fillings_of_equal_shapes_are_one_carrier():
    one, other = (standard_tableaux(Shape.right((3, 2, 1))) for _ in range(2))
    assert [orbit.members for orbit in dihedral_orbits(one + other)] == [
        orbit.members for orbit in dihedral_orbits(one)
    ]


def reference_anomaly(shape: Shape, max_seeds: int, mode: str, seed_start: int = 0):
    """The sampled search with its own orbit bookkeeping: walk the drawn
    start's ids, rebuild each state, total its hooks, take the least key."""
    steps = _tau_words(_generators(mode), shape.size)
    visited = set()
    for seed in range(seed_start, max_seeds):
        start = random_standard_tableau(shape, random.Random(f"0/{seed}"))
        if start.ids in visited:
            continue
        orbit = _walk(start.ids, steps, start._toggle)
        visited.update(orbit)
        members = [start._rebuild(ids) for ids in orbit]
        average = Fraction(_window_sum(members, _hook_windows), len(members))
        if average != 1:
            return {"seed": seed, "orbit_size": len(members), "average": average,
                    "representative": min(members, key=Tableau.key)}
    return None


# A homomesic staircase, the 28-cell one off average under gyration, and a
# shape whose dihedral and gyration orbits are all off average.
# The seeds drawn on each shape.
SAMPLED = {(5, 4, 3, 2, 1): 40, (7, 6, 5, 4, 3, 2, 1): 6, (5, 4, 3, 3): 12}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("outer", SAMPLED, ids=lambda outer: ",".join(map(str, outer)))
def test_sampled_search_matches_its_own_walk(outer, mode):
    shape, seeds = Shape.right(outer), SAMPLED[outer]
    for seed in range(seeds):  # each draw alone, then the range with its visited skip
        hit = find_gyration_anomaly(shape, seed + 1, mode=mode, seed_start=seed)
        assert hit == reference_anomaly(shape, seed + 1, mode, seed_start=seed), (mode, seed)
    hit = find_gyration_anomaly(shape, seeds, mode=mode)
    assert hit == reference_anomaly(shape, seeds, mode)
    assert hit is None or type(hit["representative"]) is Tableau


def test_sampled_search_refuses_an_unknown_mode_before_the_first_draw():
    with pytest.raises(ValueError, match="unknown mode 'rotation'"):
        find_gyration_anomaly(Shape.right((3, 2, 1)), max_seeds=0, mode="rotation")
