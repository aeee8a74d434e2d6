"""Where the chain walk splits its table, and what it keeps while it wraps.

``posets._extensions`` builds the tails of one level once and walks the
prefixes above it; ``posets._split`` chooses that level from the level sums
of ``count`` (the chains below a state) and ``posets._forward`` (the chains
from the root to it).  Every level must list the same chains in the same
order, the chosen level must cost least, counted from the chains themselves,
and ``fwd`` must count the paths from the root.  Each family's tables are the
ones its own enumeration walks.
"""

import gc
import itertools
import random
import sys
import tracemalloc

import pytest

from braidhooks import posets, tableaux, words
from braidhooks.cli import parse_shape
from braidhooks.posets import Poset, linear_extensions, random_bounded_poset
from braidhooks.tableaux import standard_tableaux
from braidhooks.words import Permutation, all_reduced_words, commutation_class, staircase_word


def fresh(poset: Poset):
    """The extensions of a new copy of ``poset``: ``linear_extensions``
    keeps the last poset's list, so a copy makes it walk again."""
    return lambda: linear_extensions(Poset(poset.elements, poset.covers))


def families() -> dict[str, list]:
    """Each family's enumerations, by name, as functions that run them."""
    rng = random.Random(2023)
    found = {f"S{n}": [lambda perm=perm: all_reduced_words(perm) for perm in
                       map(Permutation, itertools.permutations(range(1, n + 1)))]
             for n in range(1, 6)}
    found["class of staircase_word(5)"] = [lambda: commutation_class(staircase_word(5))]
    for spec in ("right:4,3,2,1", "half:5,3,1", "skew:4,3,2,1/1"):
        found[spec] = [lambda shape=parse_shape(spec): standard_tableaux(shape)]
    found["50 seeded posets"] = [fresh(random_bounded_poset(rng, rng.randint(3, 7)))
                                 for _ in range(50)]
    return found


FAMILIES = families()


def walked(monkeypatch, run) -> tuple[list, tuple, int]:
    """What ``run`` returns, the table its walk read and the level the walk
    split it at."""
    seen, walk, split = [], posets._extensions, posets._split

    def spy(table, *rest):
        seen.append(table)
        return walk(table, *rest)

    def chosen(counts, forward):
        seen.append(split(counts, forward))
        return seen[-1]

    for module in (posets, words, tableaux):
        monkeypatch.setattr(module, "_extensions", spy)
    monkeypatch.setattr(posets, "_split", chosen)
    found = run()
    monkeypatch.undo()
    table, low = seen
    return found, table, low


def labels(x) -> tuple:
    """The labels of one chain as the walk listed them."""
    return x.letters if isinstance(x, words.Word) else x.ids


def heights(up) -> list[int]:
    """Each state's distance from the end; ``up`` is in post-order."""
    height = []
    for children in up:
        height.append(height[children[0]] + 1 if children else 0)
    return height


@pytest.mark.parametrize("name", FAMILIES)
def test_every_split_lists_the_same_chains_in_the_same_order(monkeypatch, name):
    for i, run in enumerate(FAMILIES[name]):
        found, table, _ = walked(monkeypatch, run)
        for level in range(heights(table[3])[-1] + 1):
            monkeypatch.setattr(posets, "_split", lambda counts, forward: level)
            again = run()
            assert again == found, (name, i, level)
            assert [type(x) for x in again] == [type(x) for x in found]
        monkeypatch.undo()


@pytest.mark.parametrize("name", FAMILIES)
def test_the_chosen_split_costs_least(monkeypatch, name):
    # A chain's last h labels name the state h steps from its end (the
    # remaining elements of a down-set, or a reduced word of what is left of
    # the permutation), so the distinct suffixes of length h are the tails
    # built on level h and the distinct prefixes of length j the states the
    # walk reaches j steps from the root.
    for i, run in enumerate(FAMILIES[name]):
        found, _, low = walked(monkeypatch, run)
        chains = [labels(x) for x in found]
        length = len(chains[0])
        tails = [len({c[length - h:] for c in chains}) for h in range(length + 1)]
        prefixes = [len({c[:j] for c in chains}) for j in range(length + 1)]
        cost = [sum(tails[1:h + 1]) + sum(prefixes[:length - h + 1]) for h in range(length + 1)]
        assert cost[low] == min(cost), (name, i, low, cost)


@pytest.mark.parametrize("name", FAMILIES)
def test_forward_counts_the_paths_from_the_root(monkeypatch, name):
    for i, run in enumerate(FAMILIES[name]):
        _, (_, count, _, up), _ = walked(monkeypatch, run)
        arrivals, stack = [0] * len(up), [len(up) - 1]
        while stack:  # every path from the root, one step at a time
            s = stack.pop()
            arrivals[s] += 1
            stack += up[s]
        fwd = posets._forward(up)
        assert fwd == arrivals, (name, i)
        height = heights(up)
        for level in set(height):  # each chain passes one state of every level
            passing = sum(fwd[s] * count[s] for s in range(len(up)) if height[s] == level)
            assert passing == count[-1], (name, i, level)


def wide_poset() -> Poset:
    """A chain of 10 above an antichain of 8: 8! = 40,320 extensions, all
    alike in their last 10 labels, so the cost-chosen split builds many tails
    (1,680 of length 14)."""
    low = [f"a{i}" for i in range(8)]
    high = [f"c{i}" for i in range(10)]
    return Poset(low + high, [(a, high[0]) for a in low] + list(zip(high, high[1:])))


def test_a_wide_low_end_peaks_at_its_extensions_and_tails(monkeypatch):
    # The peak is the extensions, with their id tuples, in the list returned
    # and the list ``linear_extensions`` keeps, plus the tails the split chose
    # to build: no second list of objects beside them.  The walk drops its
    # tails before the wrap, but CPython may keep dropped short tuples in its
    # free lists, which tracemalloc counts as live, until a full collection
    # clears them; so the free lists start empty and no collection runs.
    _, (_, count, _, up), low = walked(monkeypatch, fresh(wide_poset()))
    height = heights(up)
    tails = sum(count[s] * sys.getsizeof(tuple(range(height[s])))
                for s in range(len(up)) if 1 <= height[s] <= low)
    assert low == 14
    poset = wide_poset()
    poset._downsets(10**9, "linear extensions")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        found = linear_extensions(poset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(found) == 40320
    result = sum(sys.getsizeof(x) + sys.getsizeof(x.ids) for x in found) + sys.getsizeof(found)
    assert peak <= result + sys.getsizeof(found) + tails + 16 * 1024
