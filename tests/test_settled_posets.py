"""The seeded ``verify poset-edges`` settles each distinct structure once.

``random_bounded_poset`` draws from few structures: the 2,145 draws of the
seed-0 benchmark run hold 95 distinct labelled posets.  The seeded check
draws each poset's elements and cover pairs (``posets._random_layers``), and
``posets._Settled`` keys them before any ``Poset`` is built: the first draw
of a structure builds its ``Poset``, which holds its down-set table and
orbit windows (``_windows``), and the store keeps it with its linear
extensions, so a later draw of the same elements and covers is checked as
that poset and walks nothing.  Every pair still asks ``linear_extensions``,
which hands out a fresh list, so the benchmark's traced counts hold; the
output must equal a loop that checks every draw afresh, whatever the store's
bound ``posets._SETTLED``, and the store never holds more than it.
"""

import gc
import io
import json
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest

from braidhooks import posets
from braidhooks.cli import EXIT_PASS, main
from braidhooks.posets import (
    Poset,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
    verify_edges,
)


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def seeded(count, max_size, seed) -> list[str]:
    return ["verify", "poset-edges", "--count", str(count), "--max-size", str(max_size),
            "--seed", str(seed)]


def reference(count, max_size, seed) -> str:
    """The seeded JSON from ``verify_edges`` on a fresh twin of every draw, in
    ``order_ideals`` order, with nothing shared between draws."""
    rng, checked = random.Random(seed), 0
    for _ in range(count):
        poset = random_bounded_poset(rng, rng.randint(3, max_size))
        twin = Poset(poset.elements, poset.covers)
        for ideal in order_ideals(twin):
            if ideal and len(ideal) < twin.size:
                checked += 1
                if not verify_edges(twin, ideal)["ok"]:
                    return json.dumps({"theorem": "poset-edges", "checked": checked,
                                       "pass": False}, indent=2) + "\n"
    return json.dumps({"theorem": "poset-edges", "posets": count, "checked": checked,
                       "pass": True}, indent=2) + "\n"


def structure(poset):
    return poset.elements, poset.covers


def test_the_benchmark_goldens_hold(monkeypatch):
    # perfbench's traced seed-0 figures: a reuse that skips a pair's call fails here
    calls, objects, stores = [], set(), []
    extensions, check = posets.linear_extensions, posets._Settled.check

    def counted(poset, cap=None):
        result = extensions(poset, cap)
        calls.append(len(result))
        objects.add(poset)
        return result

    def watched(settled, elements, covers, cap):
        stores.append(settled)
        return check(settled, elements, covers, cap)

    monkeypatch.setattr(posets, "linear_extensions", counted)
    monkeypatch.setattr(posets._Settled, "check", watched)
    code, out = run(seeded(2145, 6, 0))
    assert (code, json.loads(out)["checked"]) == (EXIT_PASS, 12_112)
    assert (len(calls), sum(calls)) == (12_112, 100_020)
    # the distinct Poset objects checked are the 95 structures the store holds
    settled = stores[0]
    assert all(store is settled for store in stores)  # one store for the run
    assert objects == {poset for poset, _ in settled.values()}
    assert len({structure(poset) for poset in objects}) == 95


def test_each_structure_is_built_and_walked_once(monkeypatch):
    # the seed-0 benchmark run: 2,145 draws, 95 structures, each built and walked once
    builds, walks = [], []
    init, walk = Poset.__init__, posets._extensions

    def built(poset, *args):
        builds.append(poset)
        init(poset, *args)

    def walked(*args):
        walks.append(args[3])  # the poset walked, the carriers' ambient
        return walk(*args)

    monkeypatch.setattr(Poset, "__init__", built)
    monkeypatch.setattr(posets, "_extensions", walked)
    code, out = run(seeded(2145, 6, 0))
    assert (code, json.loads(out)["checked"]) == (EXIT_PASS, 12_112)
    assert (len(builds), len(walks)) == (95, 95)
    assert walks == builds


def test_a_draw_is_the_poset_random_bounded_poset_builds():
    # the seeded check and ``random_bounded_poset`` (the benchmark's own plan) draw alike
    sizes, drawn, built = random.Random(38), random.Random(7), random.Random(7)
    for _ in range(1000):
        size = sizes.randint(3, 10)
        elements, covers = posets._random_layers(drawn, size)
        poset, twin = random_bounded_poset(built, size), Poset(elements, covers)
        assert (poset.elements, poset.covers, poset._below) == (twin.elements, twin.covers,
                                                                 twin._below)
        # the drawn covers are already reduced: one key per structure
        assert frozenset(covers) == twin.covers
        assert drawn.getstate() == built.getstate()


@pytest.mark.parametrize("max_size", range(3, 9))
@pytest.mark.parametrize("seed", range(5))
def test_reuse_changes_nothing(seed, max_size, monkeypatch):
    expected = reference(50, max_size, seed)
    assert run(seeded(50, max_size, seed)) == (EXIT_PASS, expected)
    for bound in (0, 40):  # nothing kept, and a few structures kept
        monkeypatch.setattr(posets, "_SETTLED", bound)
        assert run(seeded(50, max_size, seed)) == (EXIT_PASS, expected)


def held(settled) -> int:
    """The table states, window counts and extensions ``settled`` keeps,
    counted afresh."""
    return sum(len(poset._table[0]) + sum(map(len, poset._windows[1])) + len(extensions)
               for poset, extensions in settled.values())


def test_the_store_never_holds_more_than_its_bound(monkeypatch):
    argv = seeded(300, 8, 1)
    _, unbounded = run(argv)
    sizes, structures, stores = [], set(), []
    check = posets._Settled.check

    def watched(settled, elements, covers, cap):
        result = check(settled, elements, covers, cap)
        structures.add((tuple(elements), frozenset(covers)))
        assert all(structure(p) == key for key, (p, _) in settled.items())
        sizes.append((settled.held, held(settled), len(settled)))
        stores.append(settled)
        return result

    monkeypatch.setattr(posets._Settled, "check", watched)
    monkeypatch.setattr(posets, "_SETTLED", 200)
    assert run(argv) == (EXIT_PASS, unbounded)
    assert all(kept == recount <= 200 for kept, recount, _ in sizes)
    assert 0 < sizes[-1][2] < len(structures)  # it kept some, then turned others away
    for poset, extensions in stores[-1].values():  # each kept list is its poset's walk
        assert all(x.poset is poset for x in extensions)
        fresh = linear_extensions(Poset(poset.elements, poset.covers))
        assert [x.ids for x in extensions] == [x.ids for x in fresh]


def traced_peak(argv) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_small_bound_allocates_nothing_large(monkeypatch):
    argv = seeded(300, 8, 1)
    monkeypatch.setattr(posets, "_SETTLED", 0)
    run(argv)  # warm: imports and first-use caches
    nothing = traced_peak(argv)
    monkeypatch.setattr(posets, "_SETTLED", 200)
    small = traced_peak(argv)
    assert small < nothing + 64 * 1024
