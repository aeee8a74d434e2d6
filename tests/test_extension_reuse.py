"""Checking every ideal of a poset walks its extensions and closes their orbits once.

``linear_extensions`` keeps the last poset it walked (matched by identity)
with its extensions, and ``verify_edges`` keeps the cover windows of their
dihedral orbits on the poset, since neither depends on the ideal.  The reuse must give the reports a fresh walk
gives, honour the cap as a walk does, hand out lists the caller may change,
and keep no poset alive through a reference cycle.
"""

import gc
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from braidhooks import homomesy, posets
from braidhooks.errors import ExplosionGuardError, PosetBoundsError, TrivialIdealError
from braidhooks.posets import (
    Poset,
    antichain_poset,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
    verify_edges,
)


def seeded_posets(count=60):
    """The posets of ``test_posets.TestVerifyEdges.test_random_sweep``."""
    rng = random.Random(97)
    return [random_bounded_poset(rng, rng.randint(3, 7)) for _ in range(count)]


def proper_ideals(poset):
    return [i for i in order_ideals(poset) if i and len(i) < poset.size]


def counting(monkeypatch, module, name):
    """Count the calls to ``module.name`` from here on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_shared_poset_reports_equal_fresh_ones(monkeypatch):
    pairs = [(poset, ideal) for poset in seeded_posets() for ideal in proper_ideals(poset)]
    walks = counting(monkeypatch, posets, "_extensions")
    closures = counting(monkeypatch, homomesy, "dihedral_orbits")
    shared = [verify_edges(poset, ideal) for poset, ideal in pairs]
    assert len(walks) == len(closures) == 60 < len(pairs)
    fresh = [verify_edges(Poset(poset.elements, poset.covers), ideal) for poset, ideal in pairs]
    assert len(walks) == len(closures) == 60 + len(pairs)
    assert shared == fresh
    assert all(report["ok"] for report in shared)


def test_cap_below_the_count_raises_on_a_hit():
    poset = antichain_poset(4)
    assert len(linear_extensions(poset)) == 24
    with pytest.raises(ExplosionGuardError, match="linear extensions") as info:
        linear_extensions(poset, cap=23)
    assert info.value.cap == 23 and info.value.what == "linear extensions"
    assert len(linear_extensions(poset, cap=24)) == 24


def test_capped_walk_stores_nothing(monkeypatch):
    earlier, poset = antichain_poset(3), antichain_poset(4)
    linear_extensions(earlier)
    assert posets._last["poset"] is earlier
    with pytest.raises(ExplosionGuardError, match="linear extensions"):
        linear_extensions(poset, cap=5)
    assert posets._last == {}  # the earlier poset's entry went before the walk
    walks = counting(monkeypatch, posets, "_extensions")
    assert len(linear_extensions(poset, cap=30)) == 24
    assert len(walks) == 1
    assert len(linear_extensions(poset, cap=30)) == 24
    assert len(walks) == 1


def test_returned_lists_are_the_callers():
    poset = seeded_posets(1)[0]
    first = linear_extensions(poset)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    del first[:2]
    again = linear_extensions(poset)
    assert again == expected and again is not first
    assert again == linear_extensions(Poset(poset.elements, poset.covers))


def test_a_walked_unbounded_poset_still_fails_the_bounds_check():
    # the walk stores the poset but no orbit windows; only a checked poset has those
    poset = antichain_poset(3)
    linear_extensions(poset)
    with pytest.raises(PosetBoundsError):
        verify_edges(poset, frozenset({0}))


def test_bounds_are_checked_once_per_poset_and_properness_every_call(monkeypatch):
    poset = seeded_posets(1)[0]
    ideals = proper_ideals(poset)
    calls = counting(monkeypatch, Poset, "minimum")
    reports = [verify_edges(poset, ideal) for ideal in ideals]
    assert calls == ["minimum"] and all(r["ok"] for r in reports)
    with pytest.raises(TrivialIdealError):
        verify_edges(poset, frozenset())


def test_windows_stay_with_their_poset_when_the_walk_moves_on(monkeypatch):
    first, second = seeded_posets(2)
    verify_edges(first, proper_ideals(first)[0])
    verify_edges(second, proper_ideals(second)[0])  # replaces the kept walk
    closures = counting(monkeypatch, homomesy, "dihedral_orbits")
    assert all(verify_edges(first, ideal)["ok"] for ideal in proper_ideals(first))
    assert closures == []


def test_no_poset_is_left_in_a_cycle():
    # a cycle Poset -> extensions -> LinearExtension.poset -> Poset would
    # leave each checked poset for the cycle collector once dropped
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        for poset in seeded_posets(20):
            for ideal in proper_ideals(poset):
                verify_edges(poset, ideal)
        del poset
        posets._last = {}
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        collected = [type(obj).__name__ for obj in gc.garbage
                     if isinstance(obj, (Poset, posets.LinearExtension))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert collected == []


def test_threads_sharing_the_entry_get_their_own_reports():
    # the entry is replaced, never edited across posets, so a thread that
    # reads it mid-switch walks again rather than taking another's extensions
    work = [(poset, ideal) for poset in seeded_posets(24) for ideal in proper_ideals(poset)]
    expected = [verify_edges(Poset(p.elements, p.covers), i) for p, i in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda k=k: [verify_edges(p, i) for p, i in work[k::4]])
                       for k in range(4)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k in range(4):
        assert got[k] == expected[k::4]
